//! Fault-storm fuzzer: thousands of randomized fault schedules against
//! the coherence protocol with timeout/retry enabled.
//!
//! Each seed deterministically generates a world (2–4 sites, 1–2
//! pages, 1–2 processes per site), a workload, and a fault plan
//! (drop/duplicate/delay rates, site crash/restart times) via
//! `mirage_sim::run_fuzz_seed`; the run must complete, satisfy the
//! structural coherence invariants, and show every process's last
//! write in the surviving copy.
//!
//! ```text
//! fault_storm                  # sweep seeds 0..1000
//! fault_storm --seeds 5000     # wider sweep
//! fault_storm --start 1000     # shifted seed range
//! fault_storm --check-trace    # sweep with the causal trace oracle too
//! fault_storm --migrate        # layer a seeded library-handoff schedule
//! fault_storm --delta          # same seeds with sub-page delta grants on
//! fault_storm --protocol li    # same seeds under a rival protocol
//! fault_storm --matrix         # every seed under all three protocols
//! fault_storm --seed 42        # one seed, verbose outcome
//! fault_storm --seed 42 --trace# same, narrating every fault decision
//! ```
//!
//! `--migrate` draws 1–3 manual library migrations from a separate PRNG
//! stream (the world shape, workload, and fault plan are unchanged) and
//! runs them under the same drop/dup/delay/crash schedule, so role
//! handoffs race messages losses and site crashes.
//!
//! `--delta` replays the classic seeds with `delta_grants` enabled: the
//! world, workload, and fault plan are bit-identical to the plain run
//! (the flag is set after every PRNG draw), so any divergence in the
//! oracles is attributable to the diff-based wire form alone.
//!
//! `--protocol {mirage,li,tardis}` replays the classic seeds under the
//! named coherence protocol. The selector is applied after every PRNG
//! draw, so each seed's world, workload, and fault plan are
//! bit-identical across protocols — only the protocol logic differs.
//! `--matrix` runs each seed under all three and additionally asserts
//! that the authoritative page bytes at quiescence agree.
//!
//! `--openloop` switches to the open-loop family: seeded arrival
//! schedules (Poisson, deterministic, MMPP per station) inject page
//! demands at fixed sim-times regardless of service progress, so fault
//! storms land on real queue backlogs. Mirage-only: with Δ pinned ≥ 1
//! the granted access always completes before the page leaves, while
//! Li–Hudak (Δ=0 by definition) and Tardis livelock under sustained
//! open-loop overload — the §7.2 starvation rotation Mirage's window
//! exists to break (see DESIGN.md, "Open-loop traffic").
//!
//! `--large` switches to the planet-scale generator: 65–160 sites
//! (chunked site sets, paged circuit table), a sharded library
//! (`shard_pages` 1–3), and a shard-aware handoff schedule — the same
//! fault plan shape at ~25× the site count. `--sites N` pins the world
//! to exactly N sites (implies `--large`); use `--sites 1024` for the
//! CI smoke world.
//!
//! Single-seed observability flags (each implies a traced run; tracing
//! never changes the simulated execution):
//!
//! ```text
//! --metrics                    # print the protocol metrics registry
//! --check-trace                # run the offline trace checker
//! --export-chrome PATH         # write a Chrome trace-event JSON file
//! --export-jsonl PATH          # write the raw event trace as JSONL
//! ```
//!
//! Exit status is non-zero if any seed fails; each failure prints the
//! seed and the replay command, so a CI hit is reproducible locally
//! with a single copy-paste.

use std::io::Write;

use mirage_sim::{
    run_fuzz_seed,
    run_fuzz_seed_delta,
    run_fuzz_seed_delta_traced,
    run_fuzz_seed_large,
    run_fuzz_seed_large_traced,
    run_fuzz_seed_matrix,
    run_fuzz_seed_migrating,
    run_fuzz_seed_migrating_traced,
    run_fuzz_seed_protocol,
    run_fuzz_seed_protocol_traced,
    run_fuzz_seed_sized_traced,
    run_fuzz_seed_traced,
    FuzzOutcome,
    FuzzProtocol,
};
use mirage_trace::{
    chrome,
    event_to_json,
    from_trace,
    TraceEvent,
};
use mirage_workloads::{
    run_fuzz_seed_openloop,
    run_fuzz_seed_openloop_traced,
};

/// The seed generator a run uses, resolved once from the flags.
#[derive(Clone, Copy)]
enum Family {
    Classic,
    Migrate,
    Delta,
    Protocol(FuzzProtocol),
    Large,
    /// `--sites N` with `--seed`: one world of exactly N sites.
    Sized(usize),
    OpenLoop,
}

impl Family {
    /// Runs one seed. A traced run also returns its events; the sized
    /// family always runs traced.
    fn run(self, seed: u64, traced: bool) -> (FuzzOutcome, Vec<TraceEvent>) {
        let plain = |outcome| (outcome, Vec::new());
        match (self, traced) {
            (Family::Classic, true) => run_fuzz_seed_traced(seed),
            (Family::Classic, false) => plain(run_fuzz_seed(seed)),
            (Family::Migrate, true) => run_fuzz_seed_migrating_traced(seed),
            (Family::Migrate, false) => plain(run_fuzz_seed_migrating(seed)),
            (Family::Delta, true) => run_fuzz_seed_delta_traced(seed),
            (Family::Delta, false) => plain(run_fuzz_seed_delta(seed)),
            (Family::Protocol(p), true) => run_fuzz_seed_protocol_traced(seed, p),
            (Family::Protocol(p), false) => plain(run_fuzz_seed_protocol(seed, p)),
            (Family::Large, true) => run_fuzz_seed_large_traced(seed),
            (Family::Large, false) => plain(run_fuzz_seed_large(seed)),
            (Family::Sized(n), _) => run_fuzz_seed_sized_traced(seed, n),
            (Family::OpenLoop, true) => run_fuzz_seed_openloop_traced(seed),
            (Family::OpenLoop, false) => plain(run_fuzz_seed_openloop(seed)),
        }
    }

    /// The flag that selects this family in a replay command.
    fn flag(self) -> String {
        match self {
            Family::Classic => String::new(),
            Family::Migrate => " --migrate".into(),
            Family::Delta => " --delta".into(),
            Family::Protocol(p) => format!(" --protocol {}", p.name()),
            Family::Large => " --large".into(),
            Family::Sized(n) => format!(" --sites {n}"),
            Family::OpenLoop => " --openloop".into(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 1000;
    let mut start: u64 = 0;
    let mut single: Option<u64> = None;
    let mut trace = false;
    let mut metrics = false;
    let mut check_trace = false;
    let mut migrate = false;
    let mut delta = false;
    let mut large = false;
    let mut openloop = false;
    let mut protocol = FuzzProtocol::Mirage;
    let mut matrix = false;
    let mut sites: Option<usize> = None;
    let mut export_chrome: Option<String> = None;
    let mut export_jsonl: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args[i].parse().expect("--seeds takes a count");
            }
            "--start" => {
                i += 1;
                start = args[i].parse().expect("--start takes a seed");
            }
            "--seed" => {
                i += 1;
                single = Some(args[i].parse().expect("--seed takes a seed"));
            }
            "--trace" => trace = true,
            "--metrics" => metrics = true,
            "--check-trace" => check_trace = true,
            "--migrate" => migrate = true,
            "--delta" => delta = true,
            "--large" => large = true,
            "--openloop" => openloop = true,
            "--protocol" => {
                i += 1;
                let name = args.get(i).expect("--protocol takes mirage|li|tardis");
                protocol = FuzzProtocol::from_name(name).unwrap_or_else(|| {
                    eprintln!("unknown protocol: {name} (expected mirage, li, or tardis)");
                    std::process::exit(2);
                });
            }
            "--matrix" => matrix = true,
            "--sites" => {
                i += 1;
                sites = Some(args[i].parse().expect("--sites takes a site count"));
                large = true;
            }
            "--export-chrome" => {
                i += 1;
                export_chrome =
                    Some(args.get(i).expect("--export-chrome takes a path").clone());
            }
            "--export-jsonl" => {
                i += 1;
                export_jsonl = Some(args.get(i).expect("--export-jsonl takes a path").clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: fault_storm [--seeds N] [--start S] [--check-trace] \
                     [--migrate | --delta | --openloop | --large [--sites N] | \
                     --protocol {{mirage,li,tardis}} | --matrix] [--seed S [--trace] \
                     [--metrics] [--check-trace] [--export-chrome PATH] \
                     [--export-jsonl PATH]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if trace {
        // The fault layer narrates to stderr when this is set; the env
        // var (rather than a parameter) keeps the replay identical to
        // what the integration test prints.
        std::env::set_var("MIRAGE_FAULT_TRACE", "1");
    }
    let want_trace =
        check_trace || metrics || export_chrome.is_some() || export_jsonl.is_some();

    if matrix {
        if let Some(seed) = single {
            let mut ok = true;
            for outcome in run_fuzz_seed_matrix(seed) {
                println!("{}", outcome.describe());
                ok &= outcome.is_ok();
            }
            std::process::exit(if ok { 0 } else { 1 });
        }
        let mut failed = 0u64;
        for seed in start..start + seeds {
            for outcome in run_fuzz_seed_matrix(seed) {
                if !outcome.is_ok() {
                    failed += 1;
                    eprintln!("{}", outcome.describe());
                    eprintln!(
                        "replay: cargo run --release -p mirage-bench --bin fault_storm -- \
                         --seed {seed} --matrix"
                    );
                }
            }
            if (seed - start + 1).is_multiple_of(200) {
                println!("… {}/{} seeds, {} failed", seed - start + 1, seeds, failed);
            }
        }
        println!("fault_storm: {seeds} matrix seeds × 3 protocols, {failed} failures");
        std::process::exit(if failed > 0 { 1 } else { 0 });
    }

    // A pinned site count only shapes a single seed; a sweep runs the
    // planet-scale generator.
    let family = match (sites, single) {
        (Some(n), Some(_)) => Family::Sized(n),
        _ if openloop => Family::OpenLoop,
        _ if large => Family::Large,
        _ if delta => Family::Delta,
        _ if protocol != FuzzProtocol::Mirage => Family::Protocol(protocol),
        _ if migrate => Family::Migrate,
        _ => Family::Classic,
    };

    if let Some(seed) = single {
        let (outcome, events) = family.run(seed, want_trace);
        println!("{}", outcome.describe());
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
        if check_trace {
            // The checker already ran inside the traced scenario and
            // merged any violations into the outcome above; confirm.
            println!("trace checker: {}", if outcome.is_ok() { "ok" } else { "VIOLATIONS" });
        }
        if metrics {
            print!("{}", from_trace(&events).render());
        }
        if let Some(path) = export_jsonl {
            let mut f = std::fs::File::create(&path).expect("create jsonl export");
            for ev in &events {
                writeln!(f, "{}", event_to_json(ev)).expect("write jsonl export");
            }
            println!("wrote {} JSONL events to {path}", events.len());
        }
        if let Some(path) = export_chrome {
            let json = chrome::export(&events);
            chrome::validate(&json).expect("exported Chrome trace must validate");
            std::fs::write(&path, &json).expect("write chrome export");
            println!("wrote Chrome trace ({} bytes) to {path}", json.len());
        }
        std::process::exit(if outcome.is_ok() { 0 } else { 1 });
    }

    let mut failed = 0u64;
    let mut active = 0u64;
    let mut crashes = 0u64;
    let mut dropped = 0u64;
    for seed in start..start + seeds {
        let (outcome, _) = family.run(seed, check_trace);
        if let Some(stats) = outcome.stats {
            active += 1;
            crashes += stats.crashes;
            dropped += stats.dropped;
        }
        if !outcome.is_ok() {
            failed += 1;
            eprintln!("{}", outcome.describe());
            let flag = family.flag();
            // The full cargo invocation, matching what the integration
            // test prints: a copy-paste replays the seed from a clean
            // checkout without hunting for the binary.
            eprintln!(
                "replay: cargo run --release -p mirage-bench --bin fault_storm -- \
                 --seed {seed}{flag} --trace"
            );
        }
        if (seed - start + 1).is_multiple_of(200) {
            println!("… {}/{} seeds, {} failed", seed - start + 1, seeds, failed);
        }
    }
    println!(
        "fault_storm: {} seeds ({} with active plans), {} messages dropped, \
         {} crashes injected, {} failures",
        seeds, active, dropped, crashes, failed
    );
    std::process::exit(if failed > 0 { 1 } else { 0 });
}
