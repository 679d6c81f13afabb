//! Schedule-fuzzing coherence harness (bounded sweep).
//!
//! Each seed builds a random world, workload, and fault plan
//! (drop/duplicate/delay/reorder plus site crash/restart), runs the
//! storm with the timeout/retry machinery enabled, and asserts at
//! quiescence that (1) the structural coherence invariants hold,
//! (2) every process's last write is visible in the authoritative copy,
//! and (3) both offline trace oracles accept the run — every sweep runs
//! traced.
//!
//! The default sweep is sized for CI; widen it with
//! `MIRAGE_FUZZ_SEEDS=5000` (count) and/or `MIRAGE_FUZZ_START=1000`
//! (first seed). The `fault_storm` binary in `mirage-bench` runs the
//! same scenarios at scale. A failing seed prints its replay command
//! ([`FuzzFamily::replay`]) and replays deterministically.

use mirage_sim::{
    FuzzFamily,
    FuzzProtocol,
};
use mirage_trace::TraceEvent;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Runs `family` traced over `MIRAGE_FUZZ_START..+count` (the count
/// from `count_var`, else `default`), hands every run's trace to
/// `inspect`, and fails with each failing seed's replay command.
fn sweep(
    family: FuzzFamily,
    count_var: &str,
    default: u64,
    mut inspect: impl FnMut(&[TraceEvent]),
) {
    let start = env_u64("MIRAGE_FUZZ_START", 0);
    let count = env_u64(count_var, default);
    let mut failures = Vec::new();
    for seed in start..start + count {
        for (outcome, trace) in family.run(seed, true) {
            inspect(&trace);
            if !outcome.is_ok() {
                eprintln!("{}", outcome.describe());
                eprintln!("{}", family.replay(seed));
                failures.push(seed);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {count} {family:?} fuzz runs failed: {failures:?} (see stderr for replay commands)",
        failures.len()
    );
}

#[test]
fn randomized_fault_storms_preserve_coherence() {
    sweep(FuzzFamily::Classic(FuzzProtocol::Mirage), "MIRAGE_FUZZ_SEEDS", 60, |_| {});
}

/// Epoch-stamped role handoffs must survive message loss, duplication,
/// and site crashes (including the library site crashing mid-handoff),
/// and the epoch-aware trace checker must accept every run.
#[test]
fn randomized_fault_storms_with_migration_preserve_coherence() {
    sweep(FuzzFamily::Migrate, "MIRAGE_FUZZ_SEEDS", 60, |_| {});
}

/// Planet-scale storms: fewer seeds than the classic sweep — each world
/// is bigger — but the same env knobs widen it.
#[test]
fn large_sharded_fault_storms_preserve_coherence() {
    sweep(FuzzFamily::Large(None), "MIRAGE_FUZZ_LARGE_SEEDS", 16, |_| {});
}

/// The causal checker verifies each patched page against the
/// full-serve bytes; at least one seed must actually ship a delta so
/// the sweep can't silently degenerate into full grants.
#[test]
fn delta_mode_fault_storms_preserve_coherence() {
    let mut deltas_shipped = false;
    sweep(FuzzFamily::Delta, "MIRAGE_FUZZ_SEEDS", 60, |trace| {
        deltas_shipped |=
            trace.iter().any(|ev| ev.kind == mirage_trace::TraceKind::DeltaGrantSent);
    });
    assert!(
        deltas_shipped,
        "no delta grant shipped across the delta-mode seeds — the mode is inert"
    );
}

#[test]
fn li_fault_storms_preserve_coherence() {
    sweep(FuzzFamily::Classic(FuzzProtocol::Li), "MIRAGE_FUZZ_SEEDS", 60, |_| {});
}

#[test]
fn tardis_fault_storms_preserve_coherence() {
    sweep(FuzzFamily::Classic(FuzzProtocol::Tardis), "MIRAGE_FUZZ_SEEDS", 60, |_| {});
}

/// Every protocol must agree on what was written, not merely stay
/// internally coherent.
#[test]
fn cross_protocol_matrix_converges() {
    sweep(FuzzFamily::Matrix, "MIRAGE_FUZZ_MATRIX_SEEDS", 20, |_| {});
}

#[test]
fn a_known_stormy_seed_does_real_work() {
    // Guard against the harness degenerating into a no-op: at least one
    // seed in the default range must actually exercise the fault layer
    // and the workload.
    let mut exercised = false;
    for seed in 0..20 {
        for (outcome, _) in FuzzFamily::Classic(FuzzProtocol::Mirage).run(seed, false) {
            assert!(outcome.is_ok(), "{}", outcome.describe());
            if let Some(stats) = outcome.stats {
                if outcome.accesses > 0
                    && (stats.dropped > 0 || stats.crashes > 0 || stats.dup_discarded > 0)
                {
                    exercised = true;
                }
            }
        }
    }
    assert!(exercised, "no seed in 0..20 injected any fault — generator is broken");
}
