//! `host_pingpong`: real memory. A two-site `HostCluster` on the Unix
//! socket wire with Δ = 0 and one page; one application thread writes
//! through site 1's view, then site 0's, and so on, so every write is a
//! remote write fault (SIGSEGV, kernel loop, frame codec, sockets).
//!
//! Each cluster runs in a fresh child process: site slots are never
//! reused within a process, and a hung cluster can then be killed
//! without taking the benchmark with it.

use std::io::Read as _;
use std::path::{
    Path,
    PathBuf,
};
use std::process::{
    Command,
    ExitCode,
    Stdio,
};
use std::sync::atomic::{
    AtomicBool,
    AtomicU64,
    Ordering,
};
use std::sync::Arc;
use std::time::{
    Duration,
    Instant,
};

use mirage_core::ProtocolConfig;
use mirage_host::{
    ClusterOpts,
    HostCluster,
    WireChoice,
};
use mirage_trace::Registry;
use mirage_types::{
    PageNum,
    Prng,
};

use crate::{
    closed_loop,
    layers::Group,
    median,
    metric,
    micro::Costs,
    quantile,
    span::Tracer,
    Args,
    Metric,
    Timed,
    OUT_DIR,
};

/// The hidden first argument that turns the binary into one cluster run.
pub const CHILD_CMD: &str = "__host-run";

/// Remote write faults per cluster.
pub const FAULTS: u64 = 2_000;

/// A cluster run that has not finished by then is recorded as failed
/// after dumping its fault count and metrics.
const CHILD_DEADLINE: Duration = Duration::from_secs(30);
/// The parent kills a child that outlives its own deadline by this much.
const KILL_GRACE: Duration = Duration::from_secs(10);

const PAGE: PageNum = PageNum(0);

/// What one child reported.
#[derive(Default, Debug)]
pub struct ChildRun {
    pub ok: bool,
    pub faults_done: u64,
    pub setup_s: f64,
    pub loop_s: f64,
    pub teardown_s: f64,
    pub rss_mb: f64,
    pub tx_bytes: u64,
    pub tx_frames: u64,
    pub driver_events: u64,
    pub lat_ns: Vec<u64>,
}

impl ChildRun {
    fn to_line(&self) -> String {
        let lat: Vec<String> = self.lat_ns.iter().map(u64::to_string).collect();
        format!(
            "host-run ok={} faults_done={} setup_s={:?} loop_s={:?} teardown_s={:?} rss_mb={:?} \
             tx_bytes={} tx_frames={} driver_events={} lat_ns={}",
            self.ok as u8,
            self.faults_done,
            self.setup_s,
            self.loop_s,
            self.teardown_s,
            self.rss_mb,
            self.tx_bytes,
            self.tx_frames,
            self.driver_events,
            lat.join(",")
        )
    }

    fn parse(out: &str) -> Option<ChildRun> {
        let line = out.lines().rev().find_map(|l| l.strip_prefix("host-run "))?;
        let mut r = ChildRun::default();
        for tok in line.split(' ') {
            let (k, v) = tok.split_once('=')?;
            match k {
                "ok" => r.ok = v == "1",
                "faults_done" => r.faults_done = v.parse().ok()?,
                "setup_s" => r.setup_s = v.parse().ok()?,
                "loop_s" => r.loop_s = v.parse().ok()?,
                "teardown_s" => r.teardown_s = v.parse().ok()?,
                "rss_mb" => r.rss_mb = v.parse().ok()?,
                "tx_bytes" => r.tx_bytes = v.parse().ok()?,
                "tx_frames" => r.tx_frames = v.parse().ok()?,
                "driver_events" => r.driver_events = v.parse().ok()?,
                "lat_ns" if !v.is_empty() => {
                    r.lat_ns = v.split(',').map(str::parse).collect::<Result<_, _>>().ok()?
                }
                "lat_ns" => {}
                _ => return None,
            }
        }
        Some(r)
    }
}

/// Runs one cluster in a child process and waits for it, killing it if
/// it outlives its deadline. `None` if it died without a report.
pub fn spawn_run(seed: u64, trace: bool, k: usize) -> Option<ChildRun> {
    let dir = PathBuf::from(OUT_DIR).join(format!("uds-{}-{k}", std::process::id()));
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args([CHILD_CMD, &seed.to_string(), &(trace as u8).to_string()])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a host cluster process");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let kill_at = Instant::now() + CHILD_DEADLINE + KILL_GRACE;
    let status = loop {
        match child.try_wait().expect("wait for the host cluster process") {
            Some(st) => break Some(st),
            None if Instant::now() >= kill_at => {
                eprintln!("host_pingpong: cluster process {} hung; killing it", child.id());
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = reader.join().expect("stdout reader");
    let _ = std::fs::remove_dir_all(&dir);
    let run = ChildRun::parse(&out);
    if status.is_some_and(|s| !s.success()) || run.as_ref().is_some_and(|r| !r.ok) {
        let done = run.as_ref().map(|r| r.faults_done);
        eprintln!("host_pingpong: cluster run failed ({status:?}) after {done:?} faults");
    }
    run
}

pub fn timed(args: &Args) -> Timed {
    let mut t = Timed::new();
    let mut k = 0;
    closed_loop(&mut t, args.seconds, 3, |t| {
        k += 1;
        t.attempted += FAULTS;
        let Some(r) = spawn_run(args.seed.wrapping_add(k as u64), false, k) else {
            t.failed += FAULTS;
            return;
        };
        if r.faults_done < FAULTS {
            t.failed += FAULTS - r.faults_done;
        } else {
            // Every fault finished, so a failed run means a wrong
            // read-back, and the whole run's faults count as failed.
            t.correct &= r.ok;
            t.failed += if r.ok { 0 } else { FAULTS };
            t.setup_s.push(r.setup_s);
            t.pass(r.loop_s);
        }
        t.peak_rss_mb = t.peak_rss_mb.max(r.rss_mb);
    });
    t
}

/// Sums a per-site metric over both sites.
fn both(reg: &Registry, f: impl Fn(&Registry, &str) -> u64, name: &str) -> u64 {
    (0..2).map(|s| f(reg, &format!("s{s}.{name}"))).sum()
}

/// The child side: `__host-run <seed> <trace 0|1> <socket dir>`.
pub fn child_main(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let (Some(seed), Some(trace), Some(dir)) = (argv.next(), argv.next(), argv.next()) else {
        eprintln!("{CHILD_CMD}: usage: {CHILD_CMD} <seed> <trace> <dir>");
        return ExitCode::from(2);
    };
    let (Ok(seed), trace, dir) = (seed.parse::<u64>(), trace == "1", PathBuf::from(dir)) else {
        eprintln!("{CHILD_CMD}: seed must be a whole number");
        return ExitCode::from(2);
    };
    let mut tr = Tracer::new();
    let mut r = ChildRun::default();

    let span = tr.enter("host.setup", 0);
    let start = Instant::now();
    let cluster = Arc::new(HostCluster::start_with(ClusterOpts {
        sites: 2,
        config: ProtocolConfig::default(),
        wire: WireChoice::Uds(Some(dir.clone())),
        advisor: None,
    }));
    let seg = cluster.create_segment(0, 1);
    let views = [cluster.view(0, seg), cluster.view(1, seg)];
    r.setup_s = start.elapsed().as_secs_f64();
    let _ = tr.exit(span);

    let done = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let (cluster, done, finished, dir) =
            (Arc::clone(&cluster), Arc::clone(&done), Arc::clone(&finished), dir.clone());
        std::thread::spawn(move || watchdog(&cluster, &done, &finished, &dir))
    };

    let mut rng = Prng::new(seed);
    let mut last = 0;
    let root = tr.enter("host.fault_loop", 0);
    let start = Instant::now();
    for i in 0..FAULTS {
        let val = rng.next_u32();
        let site = 1 - (i % 2) as usize;
        let span = trace.then(|| tr.enter("host.fault", i + 1));
        let t0 = Instant::now();
        views[site].write_u32(PAGE, 0, val);
        r.lat_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(span) = span {
            let _ = tr.exit(span);
        }
        last = val;
        done.store(i + 1, Ordering::Relaxed);
    }
    r.loop_s = start.elapsed().as_secs_f64();
    let _ = tr.exit(root);
    r.faults_done = FAULTS;

    // Wire counters before the read-back adds its own traffic. `tx`
    // counts framed bytes (with the 20-byte frame header), what a fault
    // actually puts on the socket; `rx` counts payload only.
    let (reg, _) = tr.time("host.metrics", 0, || cluster.metrics());
    r.tx_bytes = both(&reg, Registry::gauge, "wire.tx.bytes");
    r.tx_frames = both(&reg, Registry::gauge, "wire.tx.frames");
    r.driver_events = ["fault.write", "fault.read", "deliver.msgs", "timer.fired"]
        .iter()
        .map(|n| both(&reg, Registry::counter, n))
        .sum();

    let span = tr.enter("host.readback", 0);
    let read = [views[0].read_u32(PAGE, 0), views[1].read_u32(PAGE, 0)];
    let snaps = [cluster.snapshot(0, seg), cluster.snapshot(1, seg)];
    let _ = tr.exit(span);
    let word = snaps[0]
        .as_ref()
        .and_then(|s| s.get(..4))
        .map(|b| u32::from_ne_bytes(b.try_into().expect("four bytes")));
    r.ok = read == [last, last]
        && snaps[0].is_some()
        && snaps[0] == snaps[1]
        && word == Some(last);
    if !r.ok {
        eprintln!(
            "host_pingpong: last write {last:#x}, read back {read:x?}, snapshot word \
             {word:x?}, snapshots agree: {}",
            snaps[0] == snaps[1]
        );
    }

    finished.store(true, Ordering::Release);
    watchdog.join().expect("watchdog thread");
    let span = tr.enter("host.teardown", 0);
    let start = Instant::now();
    drop(Arc::try_unwrap(cluster).ok().expect("the watchdog released the cluster"));
    r.teardown_s = start.elapsed().as_secs_f64();
    let _ = tr.exit(span);
    let _ = std::fs::remove_dir_all(&dir);
    r.rss_mb = crate::peak_rss_mb();
    if trace {
        let path = Path::new(OUT_DIR).join(format!("spans-host-{}.jsonl", std::process::id()));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("host_pingpong: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", r.to_line());
    if r.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Waits for the fault loop; past the deadline, reports how far it got
/// and what the sites' metrics say, then ends the process.
fn watchdog(cluster: &Arc<HostCluster>, done: &AtomicU64, finished: &AtomicBool, dir: &Path) {
    let deadline = Instant::now() + CHILD_DEADLINE;
    while !finished.load(Ordering::Acquire) {
        if Instant::now() >= deadline {
            let n = done.load(Ordering::Relaxed);
            eprintln!("host_pingpong: deadline passed after {n} of {FAULTS} faults");
            // A hung kernel may never answer; give it a bounded wait.
            let (tx, rx) = std::sync::mpsc::channel();
            let c = Arc::clone(cluster);
            std::thread::spawn(move || {
                let _ = tx.send(c.metrics().render());
            });
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(m) => eprintln!("host_pingpong: metrics at the deadline:\n{m}"),
                Err(_) => {
                    eprintln!("host_pingpong: the sites did not answer a metrics request")
                }
            }
            let r = ChildRun { faults_done: n, ..ChildRun::default() };
            println!("{}", r.to_line());
            let _ = std::fs::remove_dir_all(dir);
            std::process::exit(3);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Traced `host_pingpong`: one cluster run without spans gives the
/// per-fault figures; a second records a span per fault (written by the
/// child to `perfbench/out/`) and gives the tracing overhead.
pub fn layers(args: &Args, costs: &Costs, out: &mut Vec<Metric>) -> Group {
    let runs = [spawn_run(args.seed, false, 1), spawn_run(args.seed, true, 2)];
    let done: Vec<&ChildRun> =
        runs.iter().flatten().filter(|r| r.faults_done == FAULTS).collect();
    let failed = runs.iter().map(|r| FAULTS - r.as_ref().map_or(0, |r| r.faults_done)).sum();
    let group =
        |correct, overhead_s| Group { correct, attempted: 2 * FAULTS, failed, overhead_s };
    let [Some(plain), Some(traced)] = &runs else {
        return group(true, 0.0);
    };
    if done.len() < 2 {
        return group(true, 0.0);
    }
    let faults = FAULTS as f64;
    let lat_us: Vec<f64> = plain.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let p50 = median(&lat_us);
    let msgs = plain.tx_frames as f64 / faults;
    let events = plain.driver_events as f64 / faults;
    out.extend([
        metric("host.fault_p50_us", "us", p50),
        metric("host.fault_p99_us", "us", quantile(&lat_us, 0.99)),
        metric(
            "host.slow_faults",
            "count",
            lat_us.iter().filter(|&&l| l > 2.0 * p50).count() as f64,
        ),
        metric("host.msgs_per_fault", "count", msgs),
        metric("host.wire_bytes_per_fault", "B", plain.tx_bytes as f64 / faults),
        metric("host.driver_events_per_fault", "count", events),
        metric("host.teardown_s", "s", plain.teardown_s),
        metric("host.unattributed_us", "us", p50 - costs.explained_us(msgs, events)),
    ]);
    group(plain.ok && traced.ok, traced.loop_s - plain.loop_s)
}
