//! Runs one experiment of the registry, or the full report.
//!
//! `cargo run --release -p mirage-bench --bin repro -- <name|all> [--quick] [--jobs N] [--metrics]`
//!
//! `all` prints the full summary recorded in `EXPERIMENTS.md`; a name
//! prints that entry alone (the usage line lists them, `DESIGN.md` maps
//! them to experiment IDs). `--quick` runs the same experiments at
//! seconds-long horizons. `--jobs N` (else `MIRAGE_JOBS`, else every
//! core) sets the sweep workers; output is byte-identical at any value.
//! `--metrics` appends the protocol metrics from dedicated traced runs
//! to `all`, and the merged site metrics to `h2`. The exit status is 1
//! when the experiment's own check fails (H2), 2 on a usage error.

use mirage_bench::{
    experiment,
    harness::parse_jobs_flag,
    observability_report,
    registry,
    repro_all_report,
    Report,
    ReproParams,
};

fn main() {
    let mut name = None;
    let (mut quick, mut metrics) = (false, false);
    for arg in parse_jobs_flag(std::env::args().skip(1)) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--metrics" => metrics = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => usage(),
        }
    }
    let p = if quick { ReproParams::quick() } else { ReproParams::full() };
    let report = match name.as_deref() {
        Some("all") => Report {
            text: repro_all_report(&p),
            pass: true,
            metrics: metrics.then(|| observability_report(quick)),
        },
        Some(n) => (experiment(n).unwrap_or_else(|| usage()).run)(&p),
        None => usage(),
    };
    print!("{}", report.text);
    if let Some(m) = report.metrics.filter(|_| metrics) {
        print!("\n{m}");
    }
    if !report.pass {
        std::process::exit(1);
    }
}

fn usage() -> ! {
    let names: Vec<&str> = registry().map(|e| e.name).collect();
    eprintln!("usage: repro <all|{}> [--quick] [--jobs N] [--metrics]", names.join("|"));
    std::process::exit(2);
}
