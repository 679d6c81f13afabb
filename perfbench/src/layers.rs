//! The traced run (`--trace 1`). Every traced run reports the whole
//! per-layer list, so it runs the traced pass of all four workloads —
//! the named one first — and the single-layer costs of [`crate::micro`].
//! Spans are kept in memory and written to `perfbench/out/` at the end.
//!
//! Each workload's pass is also run once without spans; the difference
//! is the tracing overhead, reported as `bench.span_overhead_s`.

use std::path::Path;

use crate::{
    fuzz,
    host,
    metric,
    micro,
    sim,
    span::Tracer,
    Args,
    Report,
    OUT_DIR,
    WORKLOADS,
};

/// What one workload's traced pass checked and what tracing cost it.
pub struct Group {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Traced wall time minus the same work without spans.
    pub overhead_s: f64,
}

pub fn run(args: &Args) -> Report {
    let mut tr = Tracer::new();
    let mut out = Vec::new();

    let (dispatch_ns, _) = tr.time("core.dispatch", 0, micro::dispatch_ns);
    let ((encode_ns, decode_ns), _) = tr.time("net.codec", 0, micro::codec_ns);
    let rtt_dir = Path::new(OUT_DIR).join(format!("rtt-{}", std::process::id()));
    let (rtt_us, _) = tr.time("net.uds_rtt", 0, || micro::uds_rtt_us(&rtt_dir));
    let mut correct = rtt_us.is_some();
    if rtt_us.is_none() {
        eprintln!("net: a frame did not come back over the Unix socket");
    }
    let costs =
        micro::Costs { dispatch_ns, encode_ns, decode_ns, uds_rtt_us: rtt_us.unwrap_or(0.0) };
    out.extend([
        metric("core.dispatch_ns", "ns", dispatch_ns),
        metric("net.encode_ns", "ns", encode_ns),
        metric("net.decode_ns", "ns", decode_ns),
        metric("net.uds_rtt_us", "us", costs.uds_rtt_us),
    ]);

    let order = std::iter::once(args.workload.as_str())
        .chain(WORKLOADS.into_iter().filter(|w| *w != args.workload));
    let (mut attempted, mut failed, mut overhead_s) = (0, 0, 0.0);
    for w in order {
        let g = match w {
            "repro_full" => sim::repro_layers(&mut tr, &mut out),
            "fanout_1024" => sim::fanout_layers(&mut tr, &mut out),
            "fuzz_matrix" => fuzz::layers(args, &mut tr, &mut out),
            "host_pingpong" => host::layers(args, &costs, &mut out),
            _ => unreachable!("workload names come from WORKLOADS"),
        };
        correct &= g.correct;
        attempted += g.attempted;
        failed += g.failed;
        overhead_s += g.overhead_s;
    }
    out.push(metric("bench.span_overhead_s", "s", overhead_s));
    out.push(metric("bench.spans", "count", tr.len() as f64));

    let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    Report { correct, attempted, failed, metrics: out }
}
