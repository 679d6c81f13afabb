//! `fuzz_matrix`: every seed of a window under Mirage, Li and Tardis,
//! traced, with all three oracles — the correctness gate CI uses.

use std::collections::BTreeSet;
use std::time::Instant;

use mirage_sim::{
    run_fuzz_seed_protocol,
    run_fuzz_seed_protocol_traced,
    FuzzOutcome,
    FuzzProtocol,
};

use crate::{
    closed_loop,
    layers::Group,
    metric,
    peak_rss_mb,
    span::Tracer,
    Args,
    Metric,
    Timed,
};

/// Seeds per window.
pub const WINDOW: u64 = 1_000;

/// Seeds at the head of the window run [`SETUPS`] times before timing.
const WARMUP_SEEDS: u64 = 100;
const SETUPS: usize = 5;

/// What a window is known to produce. Known failures are real liveness
/// bugs, reported as failed operations and never skipped; a failure
/// outside this list, or a different access count over the runs that
/// pass, makes the run incorrect.
pub struct WindowPin {
    pub start: u64,
    pub known_failures: &'static [(u64, FuzzProtocol)],
    /// Completed shared-memory accesses summed over every run that is
    /// not a known failure.
    pub accesses: u64,
}

/// Window 0 is the one the benchmark measures; window 1000 is held out
/// for confirming a claim on seeds not used while making it.
pub const PINS: [WindowPin; 2] = [
    WindowPin {
        start: 0,
        known_failures: &[
            (503, FuzzProtocol::Li),
            (715, FuzzProtocol::Tardis),
            (838, FuzzProtocol::Tardis),
            (865, FuzzProtocol::Tardis),
            (898, FuzzProtocol::Tardis),
        ],
        accesses: 236_257,
    },
    WindowPin {
        start: 1_000,
        known_failures: &[
            (1_096, FuzzProtocol::Li),
            (1_146, FuzzProtocol::Tardis),
            (1_304, FuzzProtocol::Tardis),
            (1_613, FuzzProtocol::Tardis),
            (1_652, FuzzProtocol::Tardis),
            (1_893, FuzzProtocol::Tardis),
        ],
        accesses: 230_813,
    },
];

pub fn pin(start: u64) -> Option<&'static WindowPin> {
    PINS.iter().find(|p| p.start == start)
}

/// One pass over a window: every (seed, protocol) run in matrix order.
pub fn runs(start: u64) -> impl Iterator<Item = (u64, FuzzProtocol)> {
    (start..start + WINDOW).flat_map(|s| FuzzProtocol::ALL.into_iter().map(move |p| (s, p)))
}

/// Tallies one pass and checks it against the window's pin.
pub struct PassCheck {
    pin: &'static WindowPin,
    pub failures: BTreeSet<(u64, &'static str)>,
    accesses: u64,
}

impl PassCheck {
    pub fn new(pin: &'static WindowPin) -> Self {
        PassCheck { pin, failures: BTreeSet::new(), accesses: 0 }
    }

    pub fn add(&mut self, seed: u64, p: FuzzProtocol, out: &FuzzOutcome) {
        if !out.is_ok() {
            self.failures.insert((seed, p.name()));
        }
        if !self.pin.known_failures.contains(&(seed, p)) {
            self.accesses += out.accesses;
        }
    }

    /// Whether the pass matched its pin; says on stderr what did not.
    pub fn ok(&self) -> bool {
        let known: BTreeSet<(u64, &str)> =
            self.pin.known_failures.iter().map(|&(s, p)| (s, p.name())).collect();
        let unexpected: Vec<_> = self.failures.difference(&known).collect();
        let ok = unexpected.is_empty() && self.accesses == self.pin.accesses;
        if !ok {
            eprintln!(
                "fuzz_matrix: window {}: unexpected failures {unexpected:?}; accesses over \
                 passing runs {} (pinned {})",
                self.pin.start, self.accesses, self.pin.accesses
            );
        }
        ok
    }
}

/// Says on stderr how a run failed and how to replay it.
pub fn report_failure(seed: u64, p: FuzzProtocol, out: &FuzzOutcome) {
    eprintln!("fuzz_matrix: {}: {}", p.name(), out.describe());
    eprintln!(
        "replay: cargo run --release -p mirage-bench --bin fault_storm -- \
         --seed {seed} --protocol {} --trace",
        p.name()
    );
}

fn window_pin(args: &Args) -> &'static WindowPin {
    pin(args.window_start).expect("window start validated by parse_args")
}

pub fn timed(args: &Args) -> Timed {
    let pin = window_pin(args);
    let mut t = Timed::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        for (seed, p) in runs(pin.start).take((WARMUP_SEEDS * 3) as usize) {
            std::hint::black_box(run_fuzz_seed_protocol_traced(seed, p));
        }
        t.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut first_pass = true;
    closed_loop(&mut t, args.seconds, 1, |t| {
        let mut check = PassCheck::new(pin);
        let pass = Instant::now();
        for (seed, p) in runs(pin.start) {
            let (out, _trace) = run_fuzz_seed_protocol_traced(seed, p);
            check.add(seed, p, &out);
            if first_pass && !out.is_ok() {
                report_failure(seed, p, &out);
            }
        }
        t.pass(pass.elapsed().as_secs_f64());
        t.attempted += WINDOW * 3;
        t.failed += check.failures.len() as u64;
        t.correct &= check.ok();
        if first_pass {
            // After the warm-up pass, before the reference kernel's buffer.
            t.peak_rss_mb = peak_rss_mb();
        }
        first_pass = false;
    });
    t
}

/// The traced `fuzz_matrix` pass: per-layer times of the simulator, the
/// program's own trace recording and each oracle.
pub fn layers(args: &Args, tr: &mut Tracer, out: &mut Vec<Metric>) -> Group {
    let pin = window_pin(args);
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;

    // A: the simulator alone, no trace recorded, no trace oracles.
    let mut check = PassCheck::new(pin);
    let root = tr.enter("fuzz.untraced_pass", 0);
    for (seed, p) in runs(pin.start) {
        check.add(seed, p, &run_fuzz_seed_protocol(seed, p));
    }
    let sim_s = tr.exit(root);
    correct &= check.ok();
    attempted += WINDOW * 3;
    failed += check.failures.len() as u64;

    // B0: the timed operation, without spans.
    let mut check = PassCheck::new(pin);
    let start = Instant::now();
    for (seed, p) in runs(pin.start) {
        check.add(seed, p, &run_fuzz_seed_protocol_traced(seed, p).0);
    }
    let plain_s = start.elapsed().as_secs_f64();
    correct &= check.ok();
    attempted += WINDOW * 3;
    failed += check.failures.len() as u64;

    // B: the same runs, one span each, then both trace oracles re-run
    // from outside so their cost shows on its own.
    let mut check = PassCheck::new(pin);
    let (mut events, mut dropped, mut crashes) = (0u64, 0u64, 0u64);
    let mut failed_s = 0.0;
    let root = tr.enter("fuzz.traced_pass", 0);
    for (op, (seed, p)) in runs(pin.start).enumerate() {
        let op = op as u64 + 1;
        let name = match p {
            FuzzProtocol::Mirage => "fuzz.mirage",
            FuzzProtocol::Li => "fuzz.li",
            FuzzProtocol::Tardis => "fuzz.tardis",
        };
        let ((outcome, trace), run_s) =
            tr.time(name, op, || run_fuzz_seed_protocol_traced(seed, p));
        check.add(seed, p, &outcome);
        if !outcome.is_ok() {
            failed_s += run_s;
        }
        if let Some(st) = outcome.stats {
            dropped += st.dropped;
            crashes += st.crashes;
        }
        events += trace.len() as u64;
        if outcome.completed {
            let (causal, _) = tr.time("trace.check", op, || mirage_trace::check(&trace));
            let (ts, _) = tr
                .time("trace.check_timestamps", op, || mirage_trace::check_timestamps(&trace));
            // The same oracles already ran inside the traced run; a
            // disagreement means the outside call is not the one CI gates on.
            if !(causal.violations.is_empty() && ts.violations.is_empty()) && outcome.is_ok() {
                eprintln!("fuzz_matrix: seed {seed} {}: oracles disagree on re-run", p.name());
                correct = false;
            }
        }
    }
    let traced_s = tr.exit(root);
    correct &= check.ok();
    attempted += WINDOW * 3;
    failed += check.failures.len() as u64;

    let check_s = tr.total_s("trace.check");
    let check_ts_s = tr.total_s("trace.check_timestamps");
    out.extend([
        metric("fuzz.sim_s", "s", sim_s),
        metric("fuzz.trace_overhead_s", "s", plain_s - sim_s),
        metric("trace.check_s", "s", check_s),
        metric("trace.check_timestamps_s", "s", check_ts_s),
        metric("trace.events", "count", events as f64),
        metric("fuzz.mirage_s", "s", tr.self_s("fuzz.mirage")),
        metric("fuzz.li_s", "s", tr.self_s("fuzz.li")),
        metric("fuzz.tardis_s", "s", tr.self_s("fuzz.tardis")),
        metric("fuzz.failed_s", "s", failed_s),
        metric("fuzz.failed_runs", "count", check.failures.len() as f64),
        metric("faults.dropped", "count", dropped as f64),
        metric("faults.crashes", "count", crashes as f64),
    ]);
    Group { correct, attempted, failed, overhead_s: traced_s - check_s - check_ts_s - plain_s }
}
