//! A minimal wall-clock bench harness for the `benches/` targets, and
//! the scoped-thread work pool behind every parallel experiment sweep.
//!
//! The workspace builds fully offline, so the benches use this small
//! std-only timer instead of an external framework: warm up, then run
//! timed batches until a fixed measurement budget elapses, and report
//! the per-iteration time of the fastest batch (least scheduler noise).
//!
//! # The parallel sweep executor
//!
//! Every Δ-sweep in `experiments.rs` runs one independent `World` per
//! point — embarrassingly parallel work that used to run sequentially.
//! [`par_map`] fans the points out over scoped worker threads and
//! collects results **in input order**, so a sweep's output is
//! byte-for-byte identical at any worker count: each world is a sealed
//! deterministic simulation, and ordering is the only thing threads
//! could perturb. The worker count comes from [`jobs`]: the `--jobs`
//! flag (see [`parse_jobs_flag`]), else `MIRAGE_JOBS`, else all
//! available cores.

use std::num::NonZeroUsize;
use std::sync::atomic::{
    AtomicUsize,
    Ordering,
};
use std::sync::Mutex;
use std::time::{
    Duration,
    Instant,
};

/// Explicit worker-count override (0 = unset; resolve via env/cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the sweep worker count, overriding `MIRAGE_JOBS` and the core
/// count. `0` clears the override. Tests use this to compare runs at
/// different worker counts within one process.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The sweep worker count: [`set_jobs`] override, else the `MIRAGE_JOBS`
/// environment variable, else all available cores.
pub fn jobs() -> usize {
    let j = JOBS.load(Ordering::SeqCst);
    if j != 0 {
        return j;
    }
    std::env::var("MIRAGE_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        })
}

/// Applies a `--jobs N` (or `--jobs=N`) flag from a binary's argument
/// list, returning the remaining arguments.
pub fn parse_jobs_flag(args: impl Iterator<Item = String>) -> Vec<String> {
    let mut rest = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let n = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(die_jobs);
            set_jobs(n);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            let n = v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(die_jobs);
            set_jobs(n);
        } else {
            rest.push(a);
        }
    }
    rest
}

fn die_jobs() -> usize {
    eprintln!("--jobs requires a positive integer (e.g. --jobs 4)");
    std::process::exit(2);
}

/// Maps `f` over `items` on up to [`jobs`] scoped worker threads,
/// returning results in input order.
///
/// Work is handed out by an atomic cursor, so threads race only over
/// *which* index they compute, never over where a result lands — output
/// is identical to the sequential map for any worker count. A panic in
/// any worker propagates when its thread joins.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("no poisoned result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned result slot")
                .expect("every slot filled by a worker")
        })
        .collect()
}

/// Result of one benchmark: best-batch nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct BenchResult {
    /// Nanoseconds per iteration in the fastest measured batch.
    pub ns_per_iter: f64,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

impl BenchResult {
    /// Iterations per second implied by `ns_per_iter`.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter
    }
}

/// Runs `f` repeatedly and reports per-iteration time.
///
/// Prints one line in the style `name ... 123.4 ns/iter (8.10 M/s)` and
/// returns the numbers for callers that aggregate (e.g. the JSON
/// baseline emitted by `sim_throughput`).
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchResult {
    // Warm-up: let caches/branch predictors settle and estimate cost.
    let warm_budget = Duration::from_millis(200);
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < warm_budget {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let est_ns = (start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
    // Aim for batches of ~10 ms so each batch amortizes timer overhead.
    let batch = ((10e6 / est_ns) as u64).max(1);

    let measure_budget = Duration::from_millis(800);
    let mut best = f64::INFINITY;
    let mut total_iters = 0u64;
    let begun = Instant::now();
    while begun.elapsed() < measure_budget {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(ns);
        total_iters += batch;
    }
    let result = BenchResult { ns_per_iter: best, iters: total_iters };
    let rate = result.per_sec();
    let (scaled, unit) = if rate >= 1e6 {
        (rate / 1e6, "M/s")
    } else if rate >= 1e3 {
        (rate / 1e3, "K/s")
    } else {
        (rate, "/s")
    };
    println!("{name:<40} {best:>12.1} ns/iter ({scaled:.2} {unit})");
    result
}
