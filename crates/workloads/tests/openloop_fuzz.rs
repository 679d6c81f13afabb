//! Open-loop fuzz sweep: seeded arrival schedules (Poisson,
//! deterministic, MMPP per station) injected under classic-profile
//! fault storms, with the structural, write-visibility, record-
//! lifecycle, causal-trace, and timestamp oracles all asserted.
//!
//! Widen with `MIRAGE_FUZZ_SEEDS` / `MIRAGE_FUZZ_START` as for the
//! closed-loop sweeps in `mirage-sim`. A failing seed replays with:
//!
//! ```text
//! cargo run --release -p mirage-bench --bin fault_storm -- --seed <N> --openloop --trace
//! ```

use mirage_sim::replay_command;
use mirage_workloads::run_fuzz_seed_openloop;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[test]
fn open_loop_fault_storms_preserve_coherence() {
    let start = env_u64("MIRAGE_FUZZ_START", 0);
    let count = env_u64("MIRAGE_FUZZ_SEEDS", 60);
    let mut failures = Vec::new();
    for seed in start..start + count {
        // Traced: the causal and timestamp oracles both run over the
        // trace inside the harness, cross-checking the in-world
        // quiescence oracles; their violations are in the outcome.
        let (outcome, trace) = run_fuzz_seed_openloop(seed, true);
        assert!(
            !outcome.completed || !trace.is_empty(),
            "seed {seed}: traced run produced no trace events"
        );
        if !outcome.is_ok() {
            eprintln!("{}", outcome.describe());
            eprintln!("{}", replay_command(seed, " --openloop --trace"));
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {count} open-loop fuzz seeds failed: {failures:?} \
         (see stderr for replay commands)",
        failures.len()
    );
}

#[test]
fn a_known_open_loop_seed_does_real_work() {
    // Guard against the harness degenerating into a no-op: some seed in
    // the default range must inject faults while the stations do real
    // shared-memory work.
    let mut exercised = false;
    for seed in 0..12 {
        let (outcome, _) = run_fuzz_seed_openloop(seed, false);
        assert!(outcome.is_ok(), "{}", outcome.describe());
        if let Some(stats) = outcome.stats {
            if outcome.accesses > 50
                && (stats.dropped > 0 || stats.crashes > 0 || stats.dup_discarded > 0)
            {
                exercised = true;
            }
        }
    }
    assert!(exercised, "no seed in 0..12 injected faults into a working open-loop storm");
}
