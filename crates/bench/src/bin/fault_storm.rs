//! Fault-storm fuzzer: thousands of randomized fault schedules against
//! the coherence protocols with timeout/retry enabled.
//!
//! Each seed deterministically generates a world, a workload, and a
//! fault plan (drop/duplicate/delay rates, site crash/restart times);
//! the run must complete, satisfy the structural coherence invariants,
//! and show every writer's last write in the authoritative copy. One
//! flag picks the family (`mirage_sim::FuzzFamily`, or the open-loop
//! family of `mirage-workloads`):
//!
//! | flag                    | family                                                  |
//! |-------------------------|---------------------------------------------------------|
//! | (none)                  | classic: 2–4 sites, 1–2 pages, 1–2 processes per site   |
//! | `--protocol li\|tardis` | the classic seeds under a rival protocol (`mirage` = none) |
//! | `--migrate`             | classic plus 1–3 seeded library handoffs                |
//! | `--delta`               | classic with sub-page delta grants on                   |
//! | `--large`               | 65–160 sites, sharded library, shard-aware handoffs     |
//! | `--sites N`             | the large generator at exactly N sites (`--large` optional) |
//! | `--matrix`              | classic under all three protocols, page bytes diffed    |
//! | `--openloop`            | seeded open-loop arrival schedules, Mirage only         |
//!
//! Two different family flags are rejected with exit 2 and the usage
//! line, as is a missing or unparsable value. `--protocol`, `--migrate`,
//! `--delta`, and `--matrix` draw nothing from the classic seed's PRNG
//! stream, so each replays the classic seed's world, workload, and
//! fault plan exactly.
//!
//! ```text
//! fault_storm                  # sweep seeds 0..1000
//! fault_storm --seeds 5000     # wider sweep
//! fault_storm --start 1000     # shifted seed range
//! fault_storm --check-trace    # sweep with both trace oracles too
//! fault_storm --seed 42        # one seed, verbose outcome
//! fault_storm --seed 42 --trace# same, narrating every fault decision
//! ```
//!
//! Single-seed observability flags (each implies a traced run; tracing
//! never changes the simulated execution):
//!
//! ```text
//! --metrics                    # print the protocol metrics registry
//! --check-trace                # run the offline trace oracles
//! --export-chrome PATH         # write a Chrome trace-event JSON file
//! --export-jsonl PATH          # write the raw event trace as JSONL
//! ```
//!
//! Exit status is non-zero if any seed fails; each failure prints the
//! seed and the replay command, so a CI hit is reproducible locally
//! with a single copy-paste.

use std::io::Write;
use std::str::FromStr;

use mirage_sim::{
    replay_command,
    FuzzFamily,
    FuzzOutcome,
    FuzzProtocol,
};
use mirage_trace::{
    chrome,
    event_to_json,
    from_trace,
    TraceEvent,
};
use mirage_workloads::run_fuzz_seed_openloop;

const USAGE: &str = "usage: fault_storm [--seeds N] [--start S] [--check-trace] \
     [--migrate | --delta | --openloop | --large [--sites N] | \
     --protocol {mirage,li,tardis} | --matrix] [--seed S [--trace] \
     [--metrics] [--check-trace] [--export-chrome PATH] \
     [--export-jsonl PATH]]";

/// The scenario family a command line selects.
#[derive(Clone, Copy, PartialEq)]
enum Storm {
    Sim(FuzzFamily),
    OpenLoop,
}

impl Storm {
    fn run(self, seed: u64, traced: bool) -> Vec<(FuzzOutcome, Vec<TraceEvent>)> {
        match self {
            Storm::Sim(family) => family.run(seed, traced),
            Storm::OpenLoop => vec![run_fuzz_seed_openloop(seed, traced)],
        }
    }

    fn replay(self, seed: u64) -> String {
        match self {
            Storm::Sim(family) => family.replay(seed),
            Storm::OpenLoop => replay_command(seed, " --openloop --trace"),
        }
    }

    /// Combines two family flags: equal ones agree, `--large` and
    /// `--sites N` agree on the pinned size, anything else conflicts.
    fn merge(prev: Option<Storm>, next: Storm) -> Option<Storm> {
        use FuzzFamily::Large;
        match (prev, next) {
            (None, s) => Some(s),
            (Some(a), b) if a == b => Some(a),
            (Some(Storm::Sim(Large(None))), s @ Storm::Sim(Large(Some(_))))
            | (Some(s @ Storm::Sim(Large(Some(_)))), Storm::Sim(Large(None))) => Some(s),
            _ => None,
        }
    }
}

struct Cli {
    seeds: u64,
    start: u64,
    single: Option<u64>,
    trace: bool,
    metrics: bool,
    check_trace: bool,
    storm: Storm,
    export_chrome: Option<String>,
    export_jsonl: Option<String>,
}

/// Prints `msg` and the usage line to stderr and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse(args: impl IntoIterator<Item = String>) -> Cli {
    let mut cli = Cli {
        seeds: 1000,
        start: 0,
        single: None,
        trace: false,
        metrics: false,
        check_trace: false,
        storm: Storm::Sim(FuzzFamily::Classic(FuzzProtocol::Mirage)),
        export_chrome: None,
        export_jsonl: None,
    };
    let mut storm: Option<Storm> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| usage(&format!("{arg} takes {what}")))
        };
        let number = |s: String| -> u64 {
            u64::from_str(&s).unwrap_or_else(|_| usage(&format!("{arg}: not a number: {s}")))
        };
        match arg.as_str() {
            "--seeds" => cli.seeds = number(value("a count")),
            "--start" => cli.start = number(value("a seed")),
            "--seed" => cli.single = Some(number(value("a seed"))),
            "--trace" => cli.trace = true,
            "--metrics" => cli.metrics = true,
            "--check-trace" => cli.check_trace = true,
            "--export-chrome" => cli.export_chrome = Some(value("a path")),
            "--export-jsonl" => cli.export_jsonl = Some(value("a path")),
            _ => {
                let family = match arg.as_str() {
                    "--migrate" => Storm::Sim(FuzzFamily::Migrate),
                    "--delta" => Storm::Sim(FuzzFamily::Delta),
                    "--large" => Storm::Sim(FuzzFamily::Large(None)),
                    "--matrix" => Storm::Sim(FuzzFamily::Matrix),
                    "--openloop" => Storm::OpenLoop,
                    "--sites" => {
                        let n = number(value("a site count")) as usize;
                        Storm::Sim(FuzzFamily::Large(Some(n)))
                    }
                    "--protocol" => {
                        let name = value("mirage|li|tardis");
                        let p = FuzzProtocol::from_name(&name).unwrap_or_else(|| {
                            usage(&format!(
                                "unknown protocol: {name} (expected mirage, li, or tardis)"
                            ))
                        });
                        Storm::Sim(FuzzFamily::Classic(p))
                    }
                    other => usage(&format!("unknown argument: {other}")),
                };
                storm = Storm::merge(storm, family)
                    .or_else(|| usage(&format!("{arg} conflicts with an earlier family flag")));
            }
        }
    }
    cli.storm = storm.unwrap_or(cli.storm);
    cli
}

fn main() {
    let cli = parse(std::env::args().skip(1));
    if cli.trace {
        // The fault layer narrates to stderr when this is set; the env
        // var (rather than a parameter) keeps the replay identical to
        // what the integration test prints.
        std::env::set_var("MIRAGE_FAULT_TRACE", "1");
    }
    let want_trace = cli.check_trace
        || cli.metrics
        || cli.export_chrome.is_some()
        || cli.export_jsonl.is_some();

    if let Some(seed) = cli.single {
        let runs = cli.storm.run(seed, want_trace);
        for (outcome, _) in &runs {
            println!("{}", outcome.describe());
        }
        if let [(outcome, events)] = runs.as_slice() {
            report_single(&cli, outcome, events, want_trace);
        }
        std::process::exit(if runs.iter().all(|(o, _)| o.is_ok()) { 0 } else { 1 });
    }

    let (seeds, start) = (cli.seeds, cli.start);
    let (mut failed, mut active, mut crashes, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    for seed in start..start + seeds {
        for (outcome, _) in cli.storm.run(seed, cli.check_trace) {
            if let Some(stats) = outcome.stats {
                active += 1;
                crashes += stats.crashes;
                dropped += stats.dropped;
            }
            if !outcome.is_ok() {
                failed += 1;
                eprintln!("{}", outcome.describe());
                eprintln!("{}", cli.storm.replay(seed));
            }
        }
        if (seed - start + 1).is_multiple_of(200) {
            println!("… {}/{} seeds, {} failed", seed - start + 1, seeds, failed);
        }
    }
    if cli.storm == Storm::Sim(FuzzFamily::Matrix) {
        println!("fault_storm: {seeds} matrix seeds × 3 protocols, {failed} failures");
    } else {
        println!(
            "fault_storm: {seeds} seeds ({active} with active plans), {dropped} messages \
             dropped, {crashes} crashes injected, {failed} failures"
        );
    }
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

/// The verbose single-seed report after the outcome line: fault
/// counters, then whatever the observability flags asked for.
fn report_single(cli: &Cli, outcome: &FuzzOutcome, events: &[TraceEvent], want_trace: bool) {
    if let Some(stats) = outcome.stats {
        println!(
            "faults: dropped {} dup-injected {} dup-discarded {} delayed {} \
             held {} gaps-declared {} stale {} crashes {} restarts {}",
            stats.dropped,
            stats.duplicated,
            stats.dup_discarded,
            stats.delayed,
            stats.held_back,
            stats.gaps_declared,
            stats.stale_dropped,
            stats.crashes,
            stats.restarts
        );
    } else {
        println!("faults: plan inactive for this seed");
    }
    if want_trace {
        println!("trace: {} events", events.len());
    }
    if cli.check_trace {
        // The oracles already ran inside the traced scenario and merged
        // any violations into the outcome above; confirm.
        println!("trace checker: {}", if outcome.is_ok() { "ok" } else { "VIOLATIONS" });
    }
    if cli.metrics {
        print!("{}", from_trace(events).render());
    }
    if let Some(path) = &cli.export_jsonl {
        let mut f = std::fs::File::create(path).expect("create jsonl export");
        for ev in events {
            writeln!(f, "{}", event_to_json(ev)).expect("write jsonl export");
        }
        println!("wrote {} JSONL events to {path}", events.len());
    }
    if let Some(path) = &cli.export_chrome {
        let json = chrome::export(events);
        chrome::validate(&json).expect("exported Chrome trace must validate");
        std::fs::write(path, &json).expect("write chrome export");
        println!("wrote Chrome trace ({} bytes) to {path}", json.len());
    }
}
