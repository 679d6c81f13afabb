//! Parallel-sweep determinism: every experiment must produce identical
//! results at any worker count, and the `repro all --quick` report
//! must match its committed golden output byte for byte.
//!
//! The worker count is process-global ([`set_jobs`]), so the tests that
//! flip it serialize on one mutex.

use std::sync::Mutex;

use mirage_bench::{
    ablation_opts,
    baseline_compare,
    baseline_compare_with_tardis,
    dynamic_delta_with,
    experiment,
    false_sharing,
    fig7,
    fig8,
    harness::set_jobs,
    invalidation_scaling,
    local_pingpong,
    migration_hotspot,
    migration_hotspot_sharded,
    openloop_cdf,
    openloop_knees,
    openloop_ladder,
    openloop_storm,
    repro_all_report,
    test_and_set,
    thrash_system,
    timestamp_compare,
    traced_storm_metrics,
    ReproParams,
};

static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at one worker and at four, returning both Debug renderings.
/// The lock serializes every test that touches the global worker count.
fn at_jobs_1_and_4<R: std::fmt::Debug>(f: impl Fn() -> R) -> (String, String) {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(1);
    let sequential = format!("{:?}", f());
    set_jobs(4);
    let parallel = format!("{:?}", f());
    set_jobs(0);
    (sequential, parallel)
}

#[test]
fn fig7_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| fig7(&[0, 2, 6], 2));
    assert_eq!(a, b);
}

#[test]
fn fig8_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| fig8(&[0, 6, 60], 5_000));
    assert_eq!(a, b);
}

#[test]
fn local_pingpong_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| local_pingpong(2));
    assert_eq!(a, b);
}

#[test]
fn test_and_set_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| test_and_set(&[0, 6], false, 2));
    assert_eq!(a, b);
}

#[test]
fn thrash_system_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| thrash_system(&[0, 6], 2));
    assert_eq!(a, b);
}

#[test]
fn false_sharing_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| false_sharing(&[1, 2], 300));
    assert_eq!(a, b);
}

#[test]
fn ablation_opts_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| ablation_opts(2));
    assert_eq!(a, b);
}

#[test]
fn invalidation_scaling_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| invalidation_scaling(&[1, 2]));
    assert_eq!(a, b);
}

#[test]
fn baseline_compare_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(baseline_compare);
    assert_eq!(a, b);
}

/// The `b1-tardis` table adds a fourth row per trace, the real engine
/// under Tardis; it must be as schedule-independent as the default one.
#[test]
fn baseline_compare_with_tardis_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(baseline_compare_with_tardis);
    assert_eq!(a, b);
}

/// The T1 matrix mixes direct world simulation with traced fuzz-storm
/// sweeps; both halves run under `par_map`, so the whole table — every
/// message count, wire-byte total, and renewal/invalidation split —
/// must be byte-identical at any worker count.
#[test]
fn timestamp_compare_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| timestamp_compare(true));
    assert_eq!(a, b);
}

#[test]
fn dynamic_delta_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| dynamic_delta_with(2_000, 2));
    assert_eq!(a, b);
}

/// The M1 arms each run a library handoff mid-flight (manual schedule
/// or the live advisor); the sweep must still be byte-identical at any
/// worker count — migration decisions are driven entirely by simulated
/// time, never by wall-clock worker scheduling.
#[test]
fn migration_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| migration_hotspot(120));
    assert_eq!(a, b);
}

/// The sharded M2 arms migrate two library shards of one segment
/// independently (manual schedule and advisor-discovered); per-range
/// epochs and shard-bucketed advice must not introduce any worker-count
/// dependence.
#[test]
fn sharded_migration_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| migration_hotspot_sharded(120));
    assert_eq!(a, b);
}

/// Past the 64-site ceiling the reader masks run chunked and the
/// circuit table runs paged; the sweep must stay byte-identical at any
/// worker count there too.
#[test]
fn large_world_invalidation_scaling_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| invalidation_scaling(&[256]));
    assert_eq!(a, b);
}

/// Metrics registries merged across a traced sweep must render the
/// same report at any worker count: per-seed shards are produced in
/// input order and the merge is commutative, so worker scheduling has
/// nothing to perturb.
#[test]
fn storm_metrics_merge_is_identical_at_any_worker_count() {
    let seeds: Vec<u64> = (0..12).collect();
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(1);
    let sequential = traced_storm_metrics(&seeds);
    set_jobs(4);
    let parallel = traced_storm_metrics(&seeds);
    set_jobs(0);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.render(), parallel.render());
    assert!(sequential.counter("demand.requests") > 0, "sweep traced no protocol work");
}

/// The quick report both pins determinism across worker counts and
/// serves as the golden output the CI smoke compares against.
/// Regenerate with:
/// `cargo run --release -p mirage-bench --bin repro -- all --quick \
///  > crates/bench/tests/golden/repro_all_quick.txt`
#[test]
fn repro_all_quick_matches_golden() {
    let golden = include_str!("golden/repro_all_quick.txt");
    let (a, b) = at_jobs_1_and_4(|| repro_all_report(&ReproParams::quick()));
    assert_eq!(a, b, "quick report must not depend on worker count");
    // `at_jobs_1_and_4` Debug-escapes the string; compare the raw one.
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(repro_all_report(&ReproParams::quick()), golden);
}

/// Registry entries outside the report, pinned to the bytes their
/// one-table binaries printed before the `repro` registry replaced
/// them. Regenerate one with:
/// `cargo run --release -p mirage-bench --bin repro -- e5b \
///  > crates/bench/tests/golden/e5b.txt`
fn assert_entry_matches_golden(name: &str, params: ReproParams, golden: &str) {
    let entry = experiment(name).expect("registered experiment");
    let report = (entry.run)(&params);
    assert!(report.pass);
    assert_eq!(report.text, golden, "repro {name} drifted from its golden");
}

#[test]
fn e5b_matches_golden() {
    assert_entry_matches_golden("e5b", ReproParams::full(), include_str!("golden/e5b.txt"));
}

#[test]
fn e8_matches_golden() {
    assert_entry_matches_golden("e8", ReproParams::full(), include_str!("golden/e8.txt"));
}

#[test]
fn m2_quick_matches_golden() {
    let golden = include_str!("golden/m2_quick.txt");
    assert_entry_matches_golden("m2", ReproParams::quick(), golden);
}

#[test]
fn s1_matches_golden() {
    assert_entry_matches_golden("s1", ReproParams::full(), include_str!("golden/s1.txt"));
}

#[test]
fn t1_quick_matches_golden() {
    let golden = include_str!("golden/t1_quick.txt");
    assert_entry_matches_golden("t1", ReproParams::quick(), golden);
}

#[test]
fn l1_quick_matches_golden() {
    let golden = include_str!("golden/l1_quick.txt");
    assert_entry_matches_golden("l1", ReproParams::quick(), golden);
}

/// The remaining extras, pinned to the bytes `repro` printed for them
/// before the fuzz harness was folded into one family type.
#[test]
fn e6_kinds_matches_golden() {
    let golden = include_str!("golden/e6_kinds.txt");
    assert_entry_matches_golden("e6-kinds", ReproParams::full(), golden);
}

#[test]
fn e9_yield_quick_matches_golden() {
    let golden = include_str!("golden/e9_yield_quick.txt");
    assert_entry_matches_golden("e9-yield", ReproParams::quick(), golden);
}

#[test]
fn a4_large_quick_matches_golden() {
    let golden = include_str!("golden/a4_large_quick.txt");
    assert_entry_matches_golden("a4-large", ReproParams::quick(), golden);
}

#[test]
fn b1_tardis_matches_golden() {
    let golden = include_str!("golden/b1_tardis.txt");
    assert_entry_matches_golden("b1-tardis", ReproParams::full(), golden);
}

#[test]
fn l1_cdf_quick_matches_golden() {
    let golden = include_str!("golden/l1_cdf_quick.txt");
    assert_entry_matches_golden("l1-cdf", ReproParams::quick(), golden);
}

/// The L1 open-loop ladder, knee finder, storm overlay, and CDF dump
/// together form the latency report; each must be byte-identical at
/// any worker count (and the `repro l1` output with them).
#[test]
fn openloop_ladder_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| openloop_ladder(true));
    assert_eq!(a, b);
}

#[test]
fn openloop_knees_are_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| openloop_knees(true));
    assert_eq!(a, b);
}

#[test]
fn openloop_storm_is_identical_at_any_worker_count() {
    let (a, b) = at_jobs_1_and_4(|| openloop_storm(true));
    assert_eq!(a, b);
}

#[test]
fn openloop_cdf_is_identical_across_reruns() {
    let a = openloop_cdf(true, 80);
    let b = openloop_cdf(true, 80);
    assert_eq!(a, b, "CDF dump must replay byte-identically");
    assert!(a.lines().count() > 10, "CDF should carry one line per record");
}
