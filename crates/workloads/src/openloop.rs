//! Open-loop arrival processes, demand schedules, and the open-loop
//! fuzz family.
//!
//! Every other workload in this crate is closed-loop: the next access
//! issues only after the previous one completes, so offered load
//! self-throttles to service capacity and tail latency never exhibits
//! saturation. The open-loop generator fixes the *arrival schedule* up
//! front — interarrival gaps drawn from a seeded arrival process — and
//! the simulator injects each demand at its scheduled sim-time whether
//! or not earlier demands have finished
//! ([`mirage_sim::OpenLoopStation`]). Queueing delay then becomes
//! visible: past the saturation knee the queue grows without bound over
//! the schedule and p99 sojourn time explodes, which is exactly the
//! signal the L1 experiment sweeps for.
//!
//! Three arrival processes cover the classic shapes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals via inverse-CDF
//!   exponential sampling over the deterministic PRNG (interarrival
//!   CV = 1);
//! * [`ArrivalProcess::Deterministic`] — a fixed interval (CV = 0), the
//!   smoothest arrival stream a given rate admits;
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson
//!   process (CV > 1): dwell times in a low-rate and a high-rate state
//!   are themselves exponential, producing the bursty arrivals that
//!   stress queue depth hardest at a given mean rate.
//!
//! All sampling flows through [`mirage_types::Prng`], so a seed fully
//! determines the schedule and every latency distribution downstream is
//! bit-reproducible.

use std::sync::{
    Arc,
    Mutex,
};

use mirage_core::{
    DeltaPolicy,
    RetryPolicy,
};
use mirage_sim::{
    storm_plan,
    Expectation,
    FuzzOutcome,
    FuzzProtocol,
    MemRef,
    OpenLoopDemand,
    OpenLoopStation,
    Quiescence,
    SimConfig,
    StationHandle,
    World,
};
use mirage_trace::TraceEvent;
use mirage_types::{
    Access,
    Delta,
    PageNum,
    Prng,
    SegmentId,
    SimDuration,
    SimTime,
};

/// A seeded arrival process: how interarrival gaps are drawn.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_sec`: interarrival gaps are
    /// exponential, sampled by inverse CDF over the PRNG.
    Poisson {
        /// Mean arrival rate, requests per simulated second.
        rate_per_sec: f64,
    },
    /// One arrival every `interval`, exactly.
    Deterministic {
        /// The fixed interarrival gap.
        interval: SimDuration,
    },
    /// Two-state Markov-modulated Poisson process: the source dwells in
    /// a low-rate or high-rate state (exponential dwell times with mean
    /// `mean_dwell`) and emits Poisson arrivals at the state's rate.
    /// Burstier than Poisson at the same mean rate.
    Mmpp {
        /// Arrival rate in the quiet state, requests per second.
        rate_lo: f64,
        /// Arrival rate in the burst state, requests per second.
        rate_hi: f64,
        /// Mean dwell time in each state.
        mean_dwell: SimDuration,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in requests per simulated second
    /// (for MMPP the states are symmetric-dwell, so the simple average).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Deterministic { interval } => 1e9 / interval.0 as f64,
            ArrivalProcess::Mmpp { rate_lo, rate_hi, .. } => (rate_lo + rate_hi) / 2.0,
        }
    }
}

/// One exponential interarrival gap at `rate_per_sec`, by inverse CDF.
///
/// The uniform draw maps the top 53 bits of the PRNG word into `(0, 1]`
/// — the `+ 1.0` excludes 0, so `ln` never sees it and the sample is
/// always finite.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not strictly positive.
pub fn exp_interval(rng: &mut Prng, rate_per_sec: f64) -> SimDuration {
    assert!(rate_per_sec > 0.0, "exponential rate must be positive");
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    SimDuration((-u.ln() / rate_per_sec * 1e9) as u64)
}

/// Samples every arrival of `process` in `(0, horizon)`, ascending.
///
/// The first gap starts at time zero, so an arrival lands *at* zero
/// only in the measure-zero case of a zero-length first gap. Sampling
/// consumes PRNG draws proportional to the arrival count, so distinct
/// stations should use distinct seeds (or one shared stream, drawn in
/// a fixed order).
pub fn sample_arrivals(
    process: ArrivalProcess,
    rng: &mut Prng,
    horizon: SimDuration,
) -> Vec<SimTime> {
    let end = SimTime::ZERO + horizon;
    let mut out = Vec::new();
    match process {
        ArrivalProcess::Poisson { rate_per_sec } => {
            let mut t = SimTime::ZERO;
            loop {
                t += exp_interval(rng, rate_per_sec);
                if t >= end {
                    break;
                }
                out.push(t);
            }
        }
        ArrivalProcess::Deterministic { interval } => {
            assert!(interval.0 > 0, "deterministic interval must be positive");
            let mut t = SimTime::ZERO;
            loop {
                t += interval;
                if t >= end {
                    break;
                }
                out.push(t);
            }
        }
        ArrivalProcess::Mmpp { rate_lo, rate_hi, mean_dwell } => {
            assert!(mean_dwell.0 > 0, "MMPP dwell time must be positive");
            let dwell_rate = 1e9 / mean_dwell.0 as f64;
            let mut t = SimTime::ZERO;
            let mut burst = false;
            loop {
                let rate = if burst { rate_hi } else { rate_lo };
                // Competing exponentials: whichever of the next arrival
                // and the next state switch comes first, happens. Both
                // are memoryless, so the loser is simply redrawn.
                let to_arrival = exp_interval(rng, rate);
                let to_switch = exp_interval(rng, dwell_rate);
                if to_arrival <= to_switch {
                    t += to_arrival;
                    if t >= end {
                        break;
                    }
                    out.push(t);
                } else {
                    t += to_switch;
                    burst = !burst;
                    if t >= end {
                        break;
                    }
                }
            }
        }
    }
    out
}

/// What one station's demands look like: which pages, how write-heavy,
/// and which word the writes land on.
#[derive(Clone, Copy, Debug)]
pub struct DemandProfile {
    /// The shared segment.
    pub seg: SegmentId,
    /// Demands touch pages `0..pages` of the segment, uniformly.
    pub pages: u64,
    /// Word-aligned byte offset this station's writes land on. Stations
    /// with disjoint write offsets never overwrite each other, which is
    /// what makes the last-scheduled-write visibility oracle exact.
    pub write_offset: usize,
    /// Reads sample a word offset uniformly from `0..read_words` words
    /// (so they observe other stations' values too).
    pub read_words: u64,
    /// Percentage of demands that are writes (`0..=100`).
    pub write_pct: u64,
    /// First value written; subsequent writes count up monotonically.
    pub value_base: u32,
}

/// Draws a demand for every arrival and returns the schedule along
/// with the expected final value per page (the last write scheduled to
/// that page, exact when one worker drains the station FIFO).
pub fn build_demands(
    arrivals: &[SimTime],
    profile: &DemandProfile,
    rng: &mut Prng,
) -> (Vec<(SimTime, OpenLoopDemand)>, Vec<Option<u32>>) {
    assert!(profile.pages > 0, "a demand profile needs at least one page");
    assert!(profile.write_pct <= 100, "write_pct is a percentage");
    let mut expected = vec![None; profile.pages as usize];
    let mut next_val = profile.value_base;
    let demands = arrivals
        .iter()
        .map(|&at| {
            let page = PageNum(rng.below(profile.pages) as u32);
            let write = rng.below(100) < profile.write_pct;
            let d = if write {
                let v = next_val;
                next_val += 1;
                expected[page.index()] = Some(v);
                OpenLoopDemand {
                    r: MemRef::new(profile.seg, page, profile.write_offset),
                    access: Access::Write,
                    value: v,
                }
            } else {
                let off = rng.below(profile.read_words.max(1)) as usize * 4;
                OpenLoopDemand {
                    r: MemRef::new(profile.seg, page, off),
                    access: Access::Read,
                    value: 0,
                }
            };
            (at, d)
        })
        .collect();
    (demands, expected)
}

/// Record-lifecycle violations for one finished station: every record
/// granted, stamps ordered `arrival ≤ submit ≤ grant`, and (with one
/// worker) submits in FIFO order.
fn record_violations(label: &str, station: &StationHandle) -> Vec<String> {
    let s = station.lock().expect("station poisoned");
    let mut violations = Vec::new();
    let mut last_submit = SimTime::ZERO;
    for (i, r) in s.records.iter().enumerate() {
        let (Some(submit), Some(grant)) = (r.submit, r.grant) else {
            violations.push(format!(
                "{label}: record {i} never completed (submit {:?}, grant {:?})",
                r.submit, r.grant
            ));
            continue;
        };
        if submit < r.arrival || grant < submit {
            violations.push(format!(
                "{label}: record {i} stamps out of order: arrival {:?}, \
                 submit {submit:?}, grant {grant:?}",
                r.arrival
            ));
        }
        if submit < last_submit {
            violations.push(format!(
                "{label}: record {i} submitted at {submit:?}, before its \
                 predecessor at {last_submit:?} (FIFO order broken)"
            ));
        }
        last_submit = submit;
    }
    violations
}

/// The open-loop fuzz scenario: 2–4 sites, each hosting one open-loop
/// station whose arrival process (Poisson, deterministic, or MMPP) and
/// demand mix are drawn from the seed, run under the shared fault storm
/// ([`mirage_sim::storm_plan`]: drops, duplicates, delays, up to two
/// site crashes) with a clean convergence window after the horizon.
/// Mirage only: with Δ pinned ≥ 1 the granted access always completes
/// before the page leaves, while Li–Hudak (Δ = 0 by definition) and
/// Tardis livelock under sustained open-loop overload.
///
/// Oracles at quiescence, all folded into the outcome's violations:
///
/// 1. the shared quiescence tail ([`mirage_sim::Quiescence::check`]):
///    the §5.0 structural invariants, write visibility — each station
///    writes a private word, so the last *scheduled* write to each page
///    must be the authoritative value — and, when `traced`, both
///    offline trace oracles;
/// 2. record lifecycle: every injected demand granted, stamps ordered
///    `arrival ≤ submit ≤ grant`, submits FIFO per station.
///
/// The raw trace is returned for further inspection (empty untraced).
pub fn run_fuzz_seed_openloop(seed: u64, traced: bool) -> (FuzzOutcome, Vec<TraceEvent>) {
    let mut rng = Prng::new(seed ^ 0x0BE9_C0DE);
    let n_sites = 2 + rng.below(3) as usize; // 2..=4
    let pages = 1 + rng.below(2); // 1..=2

    let mut cfg = SimConfig::default();
    // Δ ≥ 1 tick, never 0. Under *sustained* open-loop backlog, Δ = 0
    // admits genuine starvation: an invalidate that raced ahead of the
    // page-carrying grant is honored the instant the page installs, so
    // the page leaves before the faulting process gets the CPU, every
    // contender refaults in turn, and the rotation is a stable limit
    // cycle that never completes a single write (seeds 91, 101 of the
    // Δ∈{0,1,2} variant ran 120 simulated seconds without progress).
    // That is precisely the §7.2 thrashing the paper introduced Δ to
    // prevent — the closed-loop fuzz never sustains it because its
    // queues drain, but an open-loop schedule keeps all stations'
    // backlogs non-empty indefinitely. One tick of window already
    // guarantees the granted access completes (context switch + access
    // cost ≪ 16.6 ms), so the sweep pins Δ ∈ {1, 2}.
    cfg.protocol.delta = DeltaPolicy::Uniform(Delta(1 + rng.below(2) as u32));
    cfg.protocol.retry = Some(RetryPolicy::default());

    let mut world = World::new(n_sites, cfg);
    if traced {
        world.enable_tracing();
    }
    let seg = world.create_segment(0, pages as usize);

    // Storm horizon 0.8–2.0 s, then a perfect network: the run must
    // converge, not merely survive.
    let horizon_ms = 800 + rng.below(1_200);
    let plan = storm_plan(&mut rng, seed, horizon_ms, (0..n_sites).collect());
    let horizon = plan.horizon;
    world.install_fault_plan(plan);

    // One station per site, one worker each (so submits are FIFO and
    // the last scheduled write per page is the authoritative value).
    // Arrivals continue past the storm horizon into the clean window.
    let arr_horizon = SimDuration::from_millis(horizon_ms + 300);
    let mut stations: Vec<StationHandle> = Vec::new();
    let mut expectations = Vec::new();
    for site in 0..n_sites {
        let process = match rng.below(3) {
            0 => ArrivalProcess::Poisson { rate_per_sec: 20.0 + rng.below(100) as f64 },
            1 => ArrivalProcess::Deterministic {
                interval: SimDuration::from_millis(8 + rng.below(32)),
            },
            _ => ArrivalProcess::Mmpp {
                rate_lo: 10.0 + rng.below(30) as f64,
                rate_hi: 80.0 + rng.below(120) as f64,
                mean_dwell: SimDuration::from_millis(50 + rng.below(200)),
            },
        };
        let arrivals = sample_arrivals(process, &mut rng, arr_horizon);
        let profile = DemandProfile {
            seg,
            pages,
            write_offset: site * 4,
            read_words: n_sites as u64,
            write_pct: 40 + rng.below(40),
            value_base: (site as u32 + 1) * 1_000_000,
        };
        let (demands, expected) = build_demands(&arrivals, &profile, &mut rng);
        let handle = world.install_open_loop(OpenLoopStation {
            site,
            demands,
            workers: 1,
            shm_pages: pages as usize,
        });
        stations.push(handle);
        expectations.push(Expectation {
            label: format!("station {site}"),
            offset: site * 4,
            last: Arc::new(Mutex::new(expected)),
        });
    }

    let tail = Quiescence { seed, seg, pages, protocol: FuzzProtocol::Mirage, horizon, traced };
    let (mut outcome, trace) = tail.check(&mut world, &expectations);
    if outcome.completed {
        for (e, station) in expectations.iter().zip(&stations) {
            outcome.violations.extend(record_violations(&e.label, station));
        }
    }
    (outcome, trace)
}

/// Drains the records of a finished station into latency records (one
/// per granted request), for the `mirage-trace` latency pipeline.
pub fn latency_records(station: &StationHandle) -> Vec<mirage_trace::LatencyRecord> {
    let s = station.lock().expect("station poisoned");
    s.records
        .iter()
        .filter_map(|r| {
            let (submit, grant) = (r.submit?, r.grant?);
            Some(mirage_trace::LatencyRecord {
                arrival_ns: r.arrival.0,
                submit_ns: submit.0,
                grant_ns: grant.0,
                depth_at_submit: r.depth_at_submit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use mirage_types::SiteId;

    use super::*;

    /// Interarrival gaps of `process` over a long horizon, in seconds.
    fn gaps(process: ArrivalProcess, seed: u64, horizon_s: u64) -> Vec<f64> {
        let mut rng = Prng::new(seed);
        let arrivals =
            sample_arrivals(process, &mut rng, SimDuration::from_millis(horizon_s * 1_000));
        let mut prev = 0u64;
        arrivals
            .iter()
            .map(|t| {
                let gap = (t.0 - prev) as f64 / 1e9;
                prev = t.0;
                gap
            })
            .collect()
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    fn variance(xs: &[f64]) -> f64 {
        let m = mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
    }

    // Satellite: statistical properties of the Poisson sampler. All
    // bounds are deterministic for the pinned seed — the sampler is a
    // pure function of the PRNG stream, so these can never flake.

    #[test]
    fn poisson_mean_matches_rate() {
        // 100 req/s over 200 s ⇒ ~20 000 samples; the sample mean of
        // an exponential concentrates tightly (σ/√n ≈ 0.07 ms here).
        let g = gaps(ArrivalProcess::Poisson { rate_per_sec: 100.0 }, 0xA11CE, 200);
        assert!(g.len() > 18_000, "expected ~20k arrivals, got {}", g.len());
        let m = mean(&g);
        assert!(
            (m - 0.010).abs() < 0.0003,
            "mean interarrival {m} should be within 3% of 10 ms"
        );
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        // Exponential gaps have σ = mean, so CV = 1.
        let g = gaps(ArrivalProcess::Poisson { rate_per_sec: 100.0 }, 0xB0B, 200);
        let cv = variance(&g).sqrt() / mean(&g);
        assert!((cv - 1.0).abs() < 0.05, "Poisson interarrival CV {cv} should be ≈1");
    }

    #[test]
    fn poisson_counts_are_poisson_distributed() {
        // Fano factor: variance/mean of counts in fixed windows is 1
        // for a Poisson process (vs 0 deterministic, >1 bursty).
        let mut rng = Prng::new(0xFA40);
        let arrivals = sample_arrivals(
            ArrivalProcess::Poisson { rate_per_sec: 50.0 },
            &mut rng,
            SimDuration::from_millis(400_000),
        );
        let window = 1_000_000_000u64; // 1 s windows, mean 50 per window
        let mut counts = vec![0.0f64; 400];
        for t in &arrivals {
            counts[(t.0 / window) as usize] += 1.0;
        }
        let fano = variance(&counts) / mean(&counts);
        assert!((fano - 1.0).abs() < 0.15, "Poisson Fano factor {fano} should be ≈1");
    }

    #[test]
    fn poisson_chi_squared_against_exponential_cdf() {
        // Bucket gaps into 8 equal-probability exponential quantile
        // bins: boundaries at -ln(1 - k/8)/rate. Expected count per
        // bin is n/8; the chi-squared statistic over 7 degrees of
        // freedom has mean 7 and σ ≈ 3.7, so 30 is a ~6σ bound —
        // coarse, but it catches a broken sampler (uniform gaps score
        // in the thousands) and is exact for the pinned seed.
        let rate = 100.0;
        let g = gaps(ArrivalProcess::Poisson { rate_per_sec: rate }, 0xC41, 200);
        let n = g.len() as f64;
        let bounds: Vec<f64> = (1..8).map(|k| -(1.0 - k as f64 / 8.0).ln() / rate).collect();
        let mut observed = [0.0f64; 8];
        for &gap in &g {
            let bin = bounds.iter().position(|&b| gap < b).unwrap_or(7);
            observed[bin] += 1.0;
        }
        let expected = n / 8.0;
        let chi2: f64 =
            observed.iter().map(|&o| (o - expected) * (o - expected) / expected).sum();
        assert!(chi2 < 30.0, "chi-squared {chi2} too large for exponential gaps");
    }

    #[test]
    fn deterministic_gaps_are_exact() {
        let interval = SimDuration::from_millis(10);
        let mut rng = Prng::new(1);
        let arrivals = sample_arrivals(
            ArrivalProcess::Deterministic { interval },
            &mut rng,
            SimDuration::from_millis(1_000),
        );
        assert_eq!(arrivals.len(), 99); // 10, 20, …, 990 ms
        assert!(arrivals.iter().enumerate().all(|(i, t)| t.0 == (i as u64 + 1) * 10_000_000));
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_same_mean_rate() {
        let mmpp = ArrivalProcess::Mmpp {
            rate_lo: 20.0,
            rate_hi: 180.0,
            mean_dwell: SimDuration::from_millis(100),
        };
        let g = gaps(mmpp, 0x3147, 400);
        let cv = variance(&g).sqrt() / mean(&g);
        assert!(cv > 1.15, "MMPP interarrival CV {cv} should exceed Poisson's 1");
        // Mean rate stays between the two state rates.
        let rate = 1.0 / mean(&g);
        assert!((20.0..180.0).contains(&rate), "MMPP mean rate {rate} outside its state rates");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        for process in [
            ArrivalProcess::Poisson { rate_per_sec: 75.0 },
            ArrivalProcess::Mmpp {
                rate_lo: 10.0,
                rate_hi: 90.0,
                mean_dwell: SimDuration::from_millis(80),
            },
        ] {
            let mut a = Prng::new(42);
            let mut b = Prng::new(42);
            let h = SimDuration::from_millis(5_000);
            assert_eq!(
                sample_arrivals(process, &mut a, h),
                sample_arrivals(process, &mut b, h)
            );
        }
    }

    #[test]
    fn build_demands_tracks_last_write_per_page() {
        let seg = SegmentId::new(SiteId(0), 0);
        let arrivals: Vec<SimTime> =
            (1..=50).map(|i| SimTime::ZERO + SimDuration::from_millis(i)).collect();
        let profile = DemandProfile {
            seg,
            pages: 2,
            write_offset: 8,
            read_words: 4,
            write_pct: 100,
            value_base: 1_000,
        };
        let mut rng = Prng::new(9);
        let (demands, expected) = build_demands(&arrivals, &profile, &mut rng);
        assert_eq!(demands.len(), 50);
        // Replay the schedule: the recorded expectation must match the
        // last write each page actually received.
        let mut last = [None, None];
        for (_, d) in &demands {
            assert_eq!(d.access, Access::Write);
            assert_eq!(d.r.offset, 8);
            last[d.r.page.index()] = Some(d.value);
        }
        assert_eq!(expected, last);
    }
}
