//! The experiment registry: one [`Experiment`] entry per table the
//! `repro` command can print, and the full report built from it.
//!
//! Each entry's `run` function runs its experiment and formats its
//! table, so every table is formatted in exactly one place.
//! [`repro_all_report`] concatenates the [`REPORT`] entries in order;
//! the golden tests pin it byte for byte, at [`ReproParams::full`] and
//! [`ReproParams::quick`]. The [`EXTRAS`] are variants and extra tables
//! that `repro <name>` prints on their own.

use std::fmt::Write as _;

use mirage_core::table1::{
    row,
    Current,
    Invalidation,
};
use mirage_sim::World;
use mirage_types::{
    Access,
    Delta,
    SimTime,
};
use mirage_workloads::RingMember;

use crate::{
    experiments::{
        ablation_opts,
        baseline_compare,
        baseline_compare_with_tardis,
        component_costs,
        dynamic_delta_with,
        false_sharing,
        fig7,
        fig8,
        invalidation_scaling,
        local_pingpong,
        migration_hotspot,
        migration_hotspot_sharded,
        msg_accounting,
        openloop_cdf,
        openloop_knees,
        openloop_ladder,
        openloop_storm,
        remap_model,
        sim_config,
        table3,
        test_and_set,
        thrash_system,
        timestamp_compare,
        BaselineRow,
        Table3Row,
    },
    host_cluster::h2_live_migration,
    table::format_table,
};

/// Horizons and sweep points for one run of the registry.
#[derive(Clone, Debug)]
pub struct ReproParams {
    /// True for [`ReproParams::quick`]. T1 and L1 pick their own short
    /// horizons from it.
    pub quick: bool,
    /// Figure 7 Δ sweep (ticks).
    pub fig7_deltas: Vec<u32>,
    /// Figure 7 horizon per point (simulated seconds).
    pub fig7_seconds: u64,
    /// E4 local ping-pong horizon (simulated seconds).
    pub pingpong_seconds: u64,
    /// E6 message-accounting horizon (simulated seconds).
    pub msg_seconds: u64,
    /// Figure 8 Δ sweep (ticks).
    pub fig8_deltas: Vec<u32>,
    /// Figure 8 per-process decrement count.
    pub fig8_task: u32,
    /// E9 test&set Δ sweep (ticks).
    pub tas_deltas: Vec<u32>,
    /// E9 horizon per point (simulated seconds).
    pub tas_seconds: u64,
    /// E10 thrash Δ sweep (ticks).
    pub thrash_deltas: Vec<u32>,
    /// E10 horizon per point (simulated seconds).
    pub thrash_seconds: u64,
    /// A1–A3 ablation horizon (simulated seconds).
    pub ablation_seconds: u64,
    /// A5 duel size (decrements per process).
    pub dyn_task: u32,
    /// A5 ping-pong horizon (simulated seconds).
    pub dyn_seconds: u64,
    /// A4 reader counts.
    pub inv_readers: Vec<usize>,
    /// M1 and M2 hot-spot size (periodic writes by the far partner).
    pub migration_task: u32,
}

impl ReproParams {
    /// The full-scale run recorded in `EXPERIMENTS.md` — the horizons
    /// the paper's figures use.
    pub fn full() -> Self {
        Self {
            quick: false,
            fig7_deltas: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14],
            fig7_seconds: 60,
            pingpong_seconds: 20,
            msg_seconds: 60,
            fig8_deltas: vec![
                0, 2, 6, 12, 30, 60, 120, 240, 360, 480, 600, 660, 780, 900, 1200,
            ],
            fig8_task: 560_000,
            tas_deltas: vec![0, 2, 6, 12],
            tas_seconds: 30,
            thrash_deltas: vec![0, 2, 6, 12, 30, 60],
            thrash_seconds: 40,
            ablation_seconds: 40,
            dyn_task: 100_000,
            dyn_seconds: 30,
            inv_readers: vec![1, 2, 4, 8, 16, 32],
            migration_task: 600,
        }
    }

    /// Short horizons for smoke tests and CI: same experiments, seconds
    /// of simulated time instead of minutes. The numbers are not the
    /// paper's — only determinism matters at this scale.
    pub fn quick() -> Self {
        Self {
            quick: true,
            fig7_deltas: vec![0, 2, 6],
            fig7_seconds: 2,
            pingpong_seconds: 2,
            msg_seconds: 2,
            fig8_deltas: vec![0, 6, 60],
            fig8_task: 20_000,
            tas_deltas: vec![0, 6],
            tas_seconds: 2,
            thrash_deltas: vec![0, 6],
            thrash_seconds: 2,
            ablation_seconds: 2,
            dyn_task: 5_000,
            dyn_seconds: 2,
            inv_readers: vec![1, 4],
            migration_task: 120,
        }
    }
}

/// What one experiment printed.
#[derive(Clone, Debug)]
pub struct Report {
    /// The rendered text. Report sections start with a `## ` heading.
    pub text: String,
    /// False when the experiment's own check failed; `repro` then exits
    /// non-zero.
    pub pass: bool,
    /// Extra text that `repro --metrics` prints after `text`.
    pub metrics: Option<String>,
}

impl Report {
    fn new(text: String) -> Self {
        Self { text, pass: true, metrics: None }
    }
}

/// One entry of the registry.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The `repro <name>` argument.
    pub name: &'static str,
    /// Runs the experiment and renders its output.
    pub run: fn(&ReproParams) -> Report,
}

/// The sections of [`repro_all_report`], in order.
///
/// The registry is two slices rather than one flagged table so that a
/// program rendering only the report (the benchmark) does not link the
/// other entries' code. `DESIGN.md` maps each name to its experiment ID.
pub const REPORT: &[Experiment] = &[
    Experiment { name: "e1", run: e1 },
    Experiment { name: "e2", run: e2 },
    Experiment { name: "e3", run: e3 },
    Experiment { name: "e4", run: e4 },
    Experiment { name: "e5", run: e5 },
    Experiment { name: "e6", run: e6 },
    Experiment { name: "e7", run: e7 },
    Experiment { name: "e9", run: |p| e9(p, false) },
    Experiment { name: "e10", run: e10 },
    Experiment { name: "a1-a3", run: a1_a3 },
    Experiment { name: "a5", run: a5 },
    Experiment { name: "a4", run: |p| a4(&p.inv_readers) },
    Experiment { name: "b1", run: |_| b1(baseline_compare()) },
    Experiment { name: "m1", run: m1 },
];

/// The entries outside the report: variants of report sections and
/// tables the report leaves out.
pub const EXTRAS: &[Experiment] = &[
    Experiment { name: "e5b", run: e5b },
    Experiment { name: "e6-kinds", run: e6_kinds },
    Experiment { name: "e8", run: e8 },
    Experiment { name: "e9-yield", run: |p| e9(p, true) },
    Experiment { name: "a4-large", run: |_| a4(&[1, 2, 4, 8, 16, 32, 64, 256, 1024]) },
    Experiment { name: "b1-tardis", run: |_| b1(baseline_compare_with_tardis()) },
    Experiment { name: "m2", run: m2 },
    Experiment { name: "s1", run: s1 },
    Experiment { name: "t1", run: t1 },
    Experiment { name: "l1", run: l1 },
    Experiment { name: "l1-cdf", run: l1_cdf },
    Experiment { name: "h2", run: h2 },
];

/// Every registry entry: the report sections, then the extras.
pub fn registry() -> impl Iterator<Item = &'static Experiment> {
    REPORT.iter().chain(EXTRAS)
}

/// The registry entry called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    registry().find(|e| e.name == name)
}

/// Runs every [`REPORT`] experiment at the given horizons and joins
/// their sections into the summary recorded in `EXPERIMENTS.md`.
pub fn repro_all_report(p: &ReproParams) -> String {
    let mut out = String::from("# Mirage reproduction — all experiments\n");
    for e in REPORT {
        out.push('\n');
        out.push_str(&(e.run)(p).text);
    }
    out
}

/// A report section: `## title`, a blank line, then `body`.
fn section(title: &str, body: String) -> Report {
    Report::new(format!("## {title}\n\n{body}"))
}

/// Converts a row of displayable cells into table cells.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

fn costs_table(first: &str, ours: &str, paper: &str, rows: Vec<Table3Row>) -> String {
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| cells![r.label, format!("{:.2}", r.ours_ms), format!("{:.2}", r.paper_ms)])
        .collect();
    format_table(&[first, ours, paper], &rows)
}

fn e1(_: &ReproParams) -> Report {
    let body = costs_table("component", "ours", "paper", component_costs());
    section("E1 — component cost anchors (§7.1, §6.2)", body)
}

fn e2(_: &ReproParams) -> Report {
    let body = costs_table("operation", "ours (ms)", "paper (ms)", table3());
    section("E2 — Table 3: remote page fetch breakdown (ms)", body)
}

fn e3(_: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = remap_model()
        .into_iter()
        .map(|r| cells![format!("{} KiB", r.kib), r.pages, format!("{:.0} µs", r.model_us)])
        .collect();
    section(
        "E3 — lazy remap model (paper: 106-125 µs/page)",
        format_table(&["segment", "pages", "remap cost"], &rows),
    )
}

fn e4(p: &ReproParams) -> Report {
    let (noy, y) = local_pingpong(p.pingpong_seconds);
    section(
        "E4 — local ping-pong (paper: 5 vs 166 cycles/s)",
        format!(
            "busy-wait {noy:.1} cycles/s | yield() {y:.1} cycles/s | speedup x{:.1} (paper x35)\n",
            y / noy
        ),
    )
}

fn e5(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = fig7(&p.fig7_deltas, p.fig7_seconds)
        .iter()
        .map(|pt| {
            cells![pt.delta, format!("{:.2}", pt.yield_rate), format!("{:.2}", pt.noyield_rate)]
        })
        .collect();
    section(
        "E5 — Figure 7: worst case, cycles/s vs Δ",
        format_table(&["Δ", "yield", "no-yield"], &rows),
    )
}

/// E5b: one page circulating through N sites as a token ring.
fn e5b(_: &ReproParams) -> Report {
    let mut rows = Vec::new();
    for n in [2usize, 3, 4, 6, 8] {
        for delta in [0u32, 2] {
            let mut w = World::new(n, sim_config(Delta(delta)));
            let seg = w.create_segment(0, 1);
            for i in 0..n {
                w.spawn(
                    i,
                    Box::new(RingMember::new(seg, i as u32, n as u32, u32::MAX / 4, true)),
                    1,
                );
            }
            w.run_until(SimTime::from_millis(30_000));
            // One lap = every member incremented once.
            let laps = w.sites[0].procs[0].metric() as f64 / 30.0;
            let msgs = w.instr.msgs.total() as f64 / w.sites[0].procs[0].metric().max(1) as f64;
            rows.push(cells![
                n,
                delta,
                format!("{laps:.2}"),
                format!("{:.1}", msgs / n as f64)
            ]);
        }
    }
    Report::new(format!(
        "E5b — N-site worst case: one page circulating through N sites\n\n{}\n\
         (the paper: \"in a network with a larger number of sites sharing\n \
         pages than ours, invalidations may become expensive\", §10)\n",
        format_table(&["sites", "Δ", "laps/s", "msgs per handoff"], &rows)
    ))
}

fn e6(p: &ReproParams) -> Report {
    let m = msg_accounting(p.msg_seconds);
    section(
        "E6 — worst-case message accounting (paper: 9 msgs, 3 large)",
        format!(
            "{:.2} msgs/cycle, {:.2} large/cycle over {} cycles ({:.2} cycles/s)\n",
            m.per_cycle, m.large_per_cycle, m.cycles, m.cycles_per_sec
        ),
    )
}

fn e6_kinds(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = msg_accounting(p.msg_seconds)
        .by_tag
        .iter()
        .map(|(t, n)| cells![t, format!("{n:.2}")])
        .collect();
    section(
        "E6 — worst-case messages per cycle, by kind",
        format_table(&["message kind", "per cycle"], &rows),
    )
}

fn e7(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = fig8(&p.fig8_deltas, p.fig8_task)
        .iter()
        .map(|pt| {
            cells![pt.delta, format!("{:.0}", pt.throughput), format!("{:.1}s", pt.makespan)]
        })
        .collect();
    section(
        "E7 — Figure 8: conflicting read-writers vs Δ (peak paper: 115k at Δ=600)",
        format_table(&["Δ (ticks)", "instr/s", "makespan"], &rows),
    )
}

/// E8: Table 1 regenerated from the engine's own action matrix.
fn e8(_: &ReproParams) -> Report {
    let mut rows = Vec::new();
    for (current, cname) in [(Current::Readers, "Readers"), (Current::Writer, "Writer")] {
        for (incoming, iname) in [(Access::Read, "Readers"), (Access::Write, "Writer")] {
            let in_set = current == Current::Readers && incoming == Access::Write;
            let r = row(current, incoming, in_set, true);
            let inv = match r.invalidation {
                Invalidation::No => "No",
                Invalidation::Yes => "Yes",
                Invalidation::YesWithUpgrade => "Yes, upgrade (requester in read set)",
                Invalidation::DowngradeWriter => "Downgrade writer to reader",
            };
            rows.push(cells![cname, iname, if r.clock_check { "Yes" } else { "No" }, inv]);
        }
    }
    Report::new(format!(
        "E8 — Table 1: page operations for read and write requests\n\n{}",
        format_table(&["Current", "Incoming", "Clock Check", "Invalidation"], &rows)
    ))
}

fn e9(p: &ReproParams, tester_yields: bool) -> Report {
    let rows: Vec<Vec<String>> = test_and_set(&p.tas_deltas, tester_yields, p.tas_seconds)
        .iter()
        .map(|pt| {
            cells![
                pt.delta,
                format!("{:.2}", pt.sections_per_sec),
                format!("{:.1}", pt.msgs_per_section)
            ]
        })
        .collect();
    section(
        if tester_yields {
            "E9 — test&set (yielding tester)"
        } else {
            "E9 — test&set (busy tester)"
        },
        format_table(&["Δ", "sections/s", "msgs/section"], &rows),
    )
}

fn e10(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = thrash_system(&p.thrash_deltas, p.thrash_seconds)
        .iter()
        .map(|pt| cells![pt.delta, format!("{:.2}", pt.app_rate), format!("{:.1}", pt.bg_rate)])
        .collect();
    section(
        "E10 — thrashing amelioration",
        format_table(&["Δ", "thrasher cycles/s", "background chunks/s"], &rows),
    )
}

fn a1_a3(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = ablation_opts(p.ablation_seconds)
        .into_iter()
        .map(|r| {
            cells![
                r.name,
                format!("{:.2}", r.cycles_per_sec),
                format!("{:.2}", r.shorts_per_cycle),
                format!("{:.2}", r.larges_per_cycle)
            ]
        })
        .collect();
    section(
        "A1–A3 — optimization ablations (Δ=2 worst case)",
        format_table(&["configuration", "cycles/s", "shorts/cycle", "pages/cycle"], &rows),
    )
}

fn a5(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = dynamic_delta_with(p.dyn_task, p.dyn_seconds)
        .into_iter()
        .map(|r| {
            cells![
                r.name,
                format!("{:.0}", r.fig8_throughput),
                format!("{:.2}", r.pingpong_rate)
            ]
        })
        .collect();
    section(
        "A5 — dynamic Δ (the paper's disabled §8.0 routine, implemented)",
        format_table(&["policy", "fig8 duel (instr/s)", "worst case (cycles/s)"], &rows),
    )
}

fn a4(readers: &[usize]) -> Report {
    let rows: Vec<Vec<String>> = invalidation_scaling(readers)
        .iter()
        .map(|pt| {
            cells![
                pt.readers,
                format!("{:.1}", pt.sequential_ms),
                format!("{:.1}", pt.multicast_ms)
            ]
        })
        .collect();
    section(
        "A4 — invalidation scaling",
        format_table(&["readers", "sequential (ms)", "multicast (ms)"], &rows),
    )
}

fn b1(results: Vec<BaselineRow>) -> Report {
    let rows: Vec<Vec<String>> = results
        .into_iter()
        .map(|r| {
            cells![
                r.trace,
                r.protocol,
                r.report.faults,
                r.report.shorts,
                r.report.larges,
                format!("{:.0}", r.report.wire_time.as_millis_f64())
            ]
        })
        .collect();
    section(
        "B1 — baseline comparison",
        format_table(&["trace", "protocol", "faults", "shorts", "pages", "wire ms"], &rows),
    )
}

fn m1(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = migration_hotspot(p.migration_task)
        .into_iter()
        .map(|r| {
            cells![
                r.policy,
                r.hot_remote_faults,
                r.remote_faults,
                r.local_faults,
                format!("{:.0}", r.throughput),
                format!("site{}", r.final_library)
            ]
        })
        .collect();
    section(
        "M1 — library placement on a hot-spot workload",
        format_table(
            &[
                "policy",
                "hot remote faults",
                "remote faults",
                "local faults",
                "instr/s",
                "library",
            ],
            &rows,
        ),
    )
}

/// M2: the M1 hot spot with a range-sharded library and two hot shards.
fn m2(p: &ReproParams) -> Report {
    let task = p.migration_task;
    let rows: Vec<Vec<String>> = migration_hotspot_sharded(task)
        .into_iter()
        .map(|r| {
            let shards: Vec<String> = r
                .shard_sites
                .iter()
                .enumerate()
                .map(|(i, s)| format!("s{i}@site{s}"))
                .collect();
            cells![
                r.policy,
                r.hot_remote_faults[0],
                r.hot_remote_faults[1],
                r.remote_faults,
                r.local_faults,
                format!("{:.0}", r.throughput),
                shards.join(" ")
            ]
        })
        .collect();
    let headers = [
        "policy",
        "site1 remote",
        "site2 remote",
        "remote faults",
        "local faults",
        "instr/s",
        "shards",
    ];
    Report::new(format!(
        "M2 — range-sharded placement, two hot shards ({task} partner writes)\n\n{}\n\
         (each shard should land at its own hot site: a whole-segment\n \
         library could chase at most one of the two hot ranges)\n",
        format_table(&headers, &rows)
    ))
}

/// S1: two writers on disjoint halves of one page, sub-page delta
/// grants off and on.
fn s1(_: &ReproParams) -> Report {
    let results = false_sharing(&[1, 2, 3, 4], 2_000);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            cells![
                r.seed,
                if r.delta_grants { "on" } else { "off" },
                r.serves,
                r.full_grants,
                r.delta_grants_sent,
                r.wire_bytes,
                format!("{:.1}", r.bytes_per_serve),
                format!("{:.1}", r.makespan_ms)
            ]
        })
        .collect();
    let headers = [
        "seed",
        "deltas",
        "serves",
        "full",
        "delta",
        "wire bytes",
        "bytes/serve",
        "makespan ms",
    ];
    // The headline ratio: how much smaller a serve got, averaged over seeds.
    let mean = |on: bool| {
        let sel: Vec<_> = results.iter().filter(|r| r.delta_grants == on).collect();
        sel.iter().map(|r| r.bytes_per_serve).sum::<f64>() / sel.len().max(1) as f64
    };
    let (off, on) = (mean(false), mean(true));
    Report::new(format!(
        "S1 — false sharing: two writers, disjoint halves of one page (Δ=0)\n\
         (delta grants ship XOR diffs against the recipient's last copy; \
         full grants ship the §7.2 1024-byte page buffer)\n\n{}\n\
         mean bytes/serve: off {off:.1}, on {on:.1} — {:.1}x reduction\n",
        format_table(&headers, &rows),
        off / on
    ))
}

/// T1: Mirage, Li–Hudak and Tardis over identical world shapes.
fn t1(p: &ReproParams) -> Report {
    let rows: Vec<Vec<String>> = timestamp_compare(p.quick)
        .into_iter()
        .map(|r| {
            cells![
                r.scenario,
                r.protocol,
                r.accesses,
                format!("{:.0}", r.events_per_sec),
                r.msgs,
                r.wire_bytes,
                r.renewals,
                r.invalidations,
                r.recalls
            ]
        })
        .collect();
    let headers = [
        "scenario",
        "protocol",
        "accesses",
        "events/s",
        "msgs",
        "wire bytes",
        "renewals",
        "invalidations",
        "recalls",
    ];
    Report::new(format!(
        "T1 — timestamp coherence vs invalidation coherence (renewal/invalidation split)\n\n{}",
        format_table(&headers, &rows)
    ))
}

/// L1: open-loop latency ladders, saturation knees and a fault-storm
/// overlay for all three protocols under the same arrival schedules.
fn l1(p: &ReproParams) -> Report {
    let ladder: Vec<Vec<String>> = openloop_ladder(p.quick)
        .into_iter()
        .map(|r| {
            cells![
                r.protocol,
                r.config,
                r.rate,
                r.offered,
                r.granted,
                r.p50_us,
                r.p99_us,
                r.mean_us,
                r.max_depth
            ]
        })
        .collect();
    let knees: Vec<Vec<String>> = openloop_knees(p.quick)
        .into_iter()
        .map(|k| {
            cells![
                k.protocol,
                k.config,
                k.unloaded_p99_us,
                k.knee_rate,
                k.p99_at_knee_us,
                format!("{}%", k.granted_pct)
            ]
        })
        .collect();
    let storm: Vec<Vec<String>> = openloop_storm(p.quick)
        .into_iter()
        .map(|r| cells![r.protocol, r.config, r.offered, r.granted, r.p50_us, r.p99_us])
        .collect();
    let mut out = String::new();
    let _ =
        writeln!(out, "L1 — open-loop latency ladder (Poisson arrivals, per-station req/s)\n");
    out.push_str(&format_table(
        &[
            "protocol",
            "config",
            "req/s",
            "offered",
            "granted",
            "p50 µs",
            "p99 µs",
            "mean µs",
            "max depth",
        ],
        &ladder,
    ));
    let _ = writeln!(
        out,
        "\nL1 — saturation knees (bisection; p99 > 8× unloaded or granted < 99%)\n"
    );
    out.push_str(&format_table(
        &[
            "protocol",
            "config",
            "unloaded p99 µs",
            "knee req/s",
            "p99 at knee µs",
            "granted at knee",
        ],
        &knees,
    ));
    let _ = writeln!(
        out,
        "\nL1 — fault-storm overlay (drops, dups, delays, one crash; 20 req/s)\n"
    );
    out.push_str(&format_table(
        &["protocol", "config", "offered", "granted", "p50 µs", "p99 µs"],
        &storm,
    ));
    Report::new(out)
}

/// The sojourn CDF of L1's first combo (Mirage, base config) at a
/// fixed offered load.
fn l1_cdf(p: &ReproParams) -> Report {
    const RATE: u64 = 80;
    Report::new(format!(
        "L1 — mirage/base sojourn CDF at {RATE} req/s per station\n\n{}",
        openloop_cdf(p.quick, RATE)
    ))
}

/// H2: live library migration on the real-memory runtime over Unix
/// sockets. Fails unless the library follows the hot site twice.
fn h2(_: &ReproParams) -> Report {
    let r = h2_live_migration();
    let mut text =
        String::from("H2 — host-driven live migration (3 sites, UDS wire, advisor on)\n\n");
    if r.migrations.is_empty() {
        text.push_str("no migrations issued\n");
    }
    for (i, m) in r.migrations.iter().enumerate() {
        let _ = writeln!(
            text,
            "move {}: seg {:?} site {} -> site {} at {:.1} ms ({} requests in window)",
            i + 1,
            m.seg,
            m.from.0,
            m.to.0,
            m.at.0 as f64 / 1e6,
            m.requests,
        );
    }
    let _ = writeln!(text, "\nresult: {}", if r.pass { "PASS" } else { "FAIL" });
    Report { text, pass: r.pass, metrics: Some(format!("## merged metrics\n{}\n", r.metrics)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro <name>` looks entries up by name.
    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = registry().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REPORT.len() + EXTRAS.len());
        assert!(experiment("all").is_none(), "`all` is the full report");
    }
}
