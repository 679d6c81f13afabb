//! The repository benchmark: four closed-loop workloads, one client
//! each, driven through the public APIs of the `sim`, `core`, `trace`,
//! `net` and `host` crates. `BENCHMARK.json` gates two of them; see
//! `perfbench/README.md` for why, for the metrics, the layers they
//! belong to and what each should move.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--window-start K]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of workload `W`; with `--trace 1` the
//! run records spans around every layer call and reports every
//! per-layer metric (see [`layers`]).

mod calib;
mod fuzz;
mod host;
mod layers;
mod micro;
mod sim;
mod span;

use std::process::ExitCode;
use std::time::Instant;

/// Every workload a run may name. `BENCHMARK.json` lists only
/// `repro_full` and `fanout_1024`: even divided by the reference kernel,
/// `fuzz_matrix` spreads too much from run to run on a shared host, and
/// `host_pingpong` waits on wakeups, not the CPU, so dividing it by a
/// CPU kernel only adds the kernel's noise. Those two are run by hand,
/// and every traced run still measures their layers.
pub const WORKLOADS: [&str; 4] = ["repro_full", "fanout_1024", "fuzz_matrix", "host_pingpong"];

/// Where a run leaves its span files and socket directories, relative
/// to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// First seed of the `fuzz_matrix` window.
    pub window_start: u64,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut window_start = 0;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let num =
            || val.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {val}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--window-start" => window_start = num()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    if fuzz::pin(window_start).is_none() {
        let starts: Vec<u64> = fuzz::PINS.iter().map(|p| p.start).collect();
        return Err(format!(
            "no fuzz_matrix window is pinned at {window_start} (pinned: {starts:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace,
        window_start,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A run's verdict and figures, printed as the final JSON line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What a timed (untraced) run of one workload measured. Every
/// workload is a closed loop of passes; a pass is made of operations.
///
/// A pass's time is reported as a multiple of the reference kernel
/// timed on either side of it ([`calib`]), which cancels the slow spells
/// of the shared host; the raw wall times go to standard error.
#[derive(Default)]
pub struct Timed {
    /// One sample per set-up (a world or cluster built before timing).
    pub setup_s: Vec<f64>,
    /// Wall time of each timed pass.
    pub pass_s: Vec<f64>,
    /// Each timed pass over the mean of the reference kernels timed
    /// just before and just after it.
    pub pass_ref: Vec<f64>,
    /// Wall time of every reference kernel.
    pub ref_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub peak_rss_mb: f64,
}

impl Timed {
    pub fn new() -> Self {
        Timed { correct: true, ..Timed::default() }
    }

    /// Records a pass that took `s` seconds.
    pub fn pass(&mut self, s: f64) {
        self.pass_s.push(s);
    }

    /// The end-to-end metrics, the same three for every workload; `None`
    /// if no pass finished (every host cluster hung, say).
    fn report(self, workload: &str) -> Option<Report> {
        if self.setup_s.is_empty() || self.pass_ref.is_empty() {
            return None;
        }
        eprintln!(
            "perfbench: {workload}: {} timed passes, fastest {:.4} s, median {:.4} s; \
             reference kernel median {:.4} s",
            self.pass_s.len(),
            quantile(&self.pass_s, 0.0),
            median(&self.pass_s),
            median(&self.ref_s),
        );
        Some(Report {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                metric("setup_s", "s", median(&self.setup_s)),
                metric("run_ref", "ref", median(&self.pass_ref)),
                metric("peak_rss_mb", "MB", self.peak_rss_mb),
            ],
        })
    }
}

/// Runs `pass` once to warm up (checked, not timed), then builds the
/// reference kernel and alternates it with passes: at least
/// `min_passes`, and more while the last pass would still end within
/// `seconds` of the start, so a run does not overrun by a pass. A pass
/// that records no time (a host cluster that hung) leaves no ratio.
pub fn closed_loop(
    t: &mut Timed,
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Timed),
) {
    let start = Instant::now();
    pass(t);
    t.pass_s.clear();
    let reference = calib::Reference::new();
    let mut before = reference.time();
    t.ref_s.push(before);
    let mut n = 0;
    let mut last = 0.0;
    while n < min_passes || start.elapsed().as_secs_f64() + last <= seconds {
        let begun = Instant::now();
        let timed = t.pass_s.len();
        pass(t);
        let after = reference.time();
        t.ref_s.push(after);
        if let Some(&s) = t.pass_s.get(timed) {
            t.pass_ref.push(s / ((before + after) / 2.0));
        }
        before = after;
        last = begun.elapsed().as_secs_f64();
        n += 1;
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (which need not be sorted).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over `bytes`: the pin for deterministic reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(host::CHILD_CMD) {
        argv.next();
        return host::child_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One load thread: the numbers measure the program, not the
    // scheduler of a small box.
    mirage_bench::harness::set_jobs(1);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let report = if args.trace {
        layers::run(&args)
    } else {
        let timed = match args.workload.as_str() {
            "repro_full" => sim::repro_timed(&args),
            "fanout_1024" => sim::fanout_timed(&args),
            "fuzz_matrix" => fuzz::timed(&args),
            "host_pingpong" => host::timed(&args),
            _ => unreachable!("workload validated by parse_args"),
        };
        let Some(report) = timed.report(&args.workload) else {
            eprintln!("perfbench: {}: no pass finished, nothing to report", args.workload);
            return ExitCode::FAILURE;
        };
        report
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
