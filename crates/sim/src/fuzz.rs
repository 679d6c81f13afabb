//! Schedule-fuzzing coherence scenarios.
//!
//! One seed drives everything: the world shape (sites, pages,
//! processes), the workload each process runs, and the [`FaultPlan`]
//! (drop/duplicate/delay rates plus site crash/restart times). The
//! scenario runs the storm, lets the network go perfect after the
//! plan's horizon, drives every program to completion, and then checks
//! the properties the paper's §5.0 coherence definition demands at
//! quiescence:
//!
//! 1. the structural invariants of [`mirage_core::invariants::check_page`]
//!    (single writer, no writer/reader coexistence, byte-identical
//!    copies, page not lost) — for Tardis, exclusive-ownership
//!    discipline instead;
//! 2. **write visibility**: each writer wrote a monotone series of
//!    values to its own private word of each page; the authoritative
//!    copy must hold exactly the last value each writer wrote;
//! 3. on traced runs, both offline trace oracles
//!    ([`mirage_trace::check()`] and [`mirage_trace::check_timestamps`]).
//!
//! Every family is built from three shared pieces: one storm draw
//! ([`storm_plan`]), one spawn of the closed-loop fuzz processes, and
//! one quiescence tail ([`Quiescence::check`]). [`FuzzFamily`] selects
//! the scenario and [`FuzzFamily::run`] runs one seed of it; the
//! open-loop family in `mirage-workloads` reuses the draw and the tail.
//! Everything is deterministic: a failing seed replays identically
//! ([`FuzzFamily::replay`]), and `MIRAGE_FAULT_TRACE=1` narrates the
//! fault schedule.

use std::sync::{
    Arc,
    Mutex,
};

use mirage_core::{
    invariants,
    Coherence,
    DeltaPolicy,
    PageStore,
    RetryPolicy,
};
use mirage_mem::PageData;
use mirage_net::{
    CrashEvent,
    FaultPlan,
    LinkFaults,
};
use mirage_trace::TraceEvent;
use mirage_types::{
    Delta,
    PageNum,
    PageProt,
    Pid,
    Prng,
    SegmentId,
    SimDuration,
    SimTime,
    SiteId,
};

use crate::{
    faults::FaultStats,
    process::ProcState,
    program::{
        MemRef,
        Op,
        Program,
    },
    site::Site,
    world::{
        MigrationEvent,
        PlacementPolicy,
        SimConfig,
        World,
    },
};

/// Which rival coherence protocol a fuzz scenario drives.
///
/// The selector is applied to the [`SimConfig`] *after* every PRNG draw
/// in the scenario builder, so for a given seed all three protocols see
/// the bit-identical world shape, workload, and fault plan — the only
/// variable is the protocol. That makes per-seed results directly
/// comparable and lets [`FuzzFamily::Matrix`] assert the protocols
/// converge to the same final contents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FuzzProtocol {
    /// The paper's protocol: Δ windows, library site, invalidation
    /// rounds (the classic fuzz scenario, unchanged).
    #[default]
    Mirage,
    /// The Li–Hudak degenerate: Δ = 0 and both §6.1 optimizations off
    /// ([`mirage_core::ProtocolConfig::li`]).
    Li,
    /// Tardis timestamp coherence: logical leases at a home site,
    /// renewals instead of invalidation fan-out.
    Tardis,
}

impl FuzzProtocol {
    /// All protocols, in matrix order.
    pub const ALL: [FuzzProtocol; 3] =
        [FuzzProtocol::Mirage, FuzzProtocol::Li, FuzzProtocol::Tardis];

    /// Stable lowercase name (CLI flag value, report labels).
    pub fn name(self) -> &'static str {
        match self {
            FuzzProtocol::Mirage => "mirage",
            FuzzProtocol::Li => "li",
            FuzzProtocol::Tardis => "tardis",
        }
    }

    /// Parses a [`Self::name`] back (for `fault_storm --protocol`).
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "mirage" => Some(FuzzProtocol::Mirage),
            "li" => Some(FuzzProtocol::Li),
            "tardis" => Some(FuzzProtocol::Tardis),
            _ => None,
        }
    }

    /// Rewrites the drawn config for this protocol. Draws nothing from
    /// any PRNG: the scenario stays bit-identical across protocols.
    fn apply(self, cfg: &mut SimConfig) {
        match self {
            FuzzProtocol::Mirage => {}
            FuzzProtocol::Li => {
                cfg.protocol.delta = DeltaPolicy::Uniform(Delta::ZERO);
                cfg.protocol.upgrade_optimization = false;
                cfg.protocol.downgrade_optimization = false;
            }
            FuzzProtocol::Tardis => {
                cfg.protocol.coherence = Coherence::Tardis;
            }
        }
    }
}

/// What one fuzz scenario concluded.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The driving seed.
    pub seed: u64,
    /// Every program ran to completion before the deadline.
    pub completed: bool,
    /// Human-readable coherence violations found at quiescence.
    pub violations: Vec<String>,
    /// Processes that never finished (empty when `completed`).
    pub stuck: Vec<(Pid, ProcState)>,
    /// Fault-layer counters (`None` if the seed rolled an inactive plan).
    pub stats: Option<FaultStats>,
    /// Total completed shared-memory accesses (sanity: the workload ran).
    pub accesses: u64,
}

impl FuzzOutcome {
    /// The scenario passed: everything completed and nothing diverged.
    pub fn is_ok(&self) -> bool {
        self.completed && self.violations.is_empty()
    }

    /// One-line failure description (for harness output).
    pub fn describe(&self) -> String {
        if self.is_ok() {
            return format!("seed {:#x}: ok ({} accesses)", self.seed, self.accesses);
        }
        let mut s = format!("seed {:#x}: FAILED", self.seed);
        if !self.completed {
            s.push_str(&format!(" — stuck pids {:?}", self.stuck));
        }
        for v in &self.violations {
            s.push_str(&format!("\n  violation: {v}"));
        }
        s
    }
}

/// A fuzz scenario family: which world generator a seed drives, and
/// under which protocol. Every family draws its storm with
/// [`storm_plan`] and ends in [`Quiescence::check`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzFamily {
    /// The classic storm — 2–4 sites, 1–2 pages, 1–2 processes per
    /// site — under the given protocol. Every protocol replays the same
    /// world, workload, and fault plan. Under Tardis the structural
    /// oracle checks exclusive ownership and visibility is judged
    /// against the owner's frame, else the home's master (stale read
    /// leases elsewhere are legal).
    Classic(FuzzProtocol),
    /// The classic storm with 1–3 manual library handoffs at random
    /// times layered *under* it. The schedule comes from its own PRNG
    /// stream, so the world, workload, and plan stay the classic ones.
    Migrate,
    /// The classic storm with sub-page delta grants on. The flag draws
    /// nothing, so only the grants' wire form differs from the classic
    /// seed: deltas dropped, duplicated, delayed, and granters crashed
    /// mid-retransmit must converge to the same coherent state.
    Delta,
    /// A planet-scale world: 65–160 sites (exactly `n` when pinned), so
    /// reader masks run chunked and the circuit table runs paged, a
    /// 4–8-page segment whose library is split into page-range shards,
    /// and a shard-aware handoff schedule under the storm. Its own PRNG
    /// stream, so the classic seeds keep their historical scenarios.
    Large(Option<usize>),
    /// The classic seed under all three protocols, plus a
    /// cross-protocol check that they converge to byte-identical
    /// authoritative page contents (divergences land in the Li and
    /// Tardis outcomes).
    Matrix,
}

impl FuzzFamily {
    /// Runs one seed: one `(outcome, trace)` per protocol run — three
    /// for [`FuzzFamily::Matrix`], one otherwise. Deterministic: the
    /// same seed always produces the same world, workload, fault
    /// schedule, and outcome, and tracing never changes any of them.
    /// A traced run also returns its events and folds both offline
    /// trace oracles into the outcome; an untraced run returns an empty
    /// trace.
    pub fn run(self, seed: u64, traced: bool) -> Vec<(FuzzOutcome, Vec<TraceEvent>)> {
        let classic = |protocol, migrate, delta_grants| {
            let (out, trace, _) = classic(seed, traced, protocol, migrate, delta_grants);
            vec![(out, trace)]
        };
        match self {
            FuzzFamily::Classic(p) => classic(p, false, false),
            FuzzFamily::Migrate => classic(FuzzProtocol::Mirage, true, false),
            FuzzFamily::Delta => classic(FuzzProtocol::Mirage, false, true),
            FuzzFamily::Large(sites) => vec![large(seed, traced, sites)],
            FuzzFamily::Matrix => run_fuzz_seed_matrix(seed, traced),
        }
    }

    /// The `fault_storm` flags that select this family (empty for the
    /// classic Mirage storm, the default).
    pub fn flag(self) -> String {
        match self {
            FuzzFamily::Classic(FuzzProtocol::Mirage) => String::new(),
            FuzzFamily::Classic(p) => format!(" --protocol {}", p.name()),
            FuzzFamily::Migrate => " --migrate".into(),
            FuzzFamily::Delta => " --delta".into(),
            FuzzFamily::Large(None) => " --large".into(),
            FuzzFamily::Large(Some(n)) => format!(" --sites {n}"),
            FuzzFamily::Matrix => " --matrix".into(),
        }
    }

    /// The `fault_storm` command that replays `seed` of this family,
    /// narrating the fault schedule (the matrix replay prints its three
    /// outcomes instead).
    pub fn replay(self, seed: u64) -> String {
        let narrate = if self == FuzzFamily::Matrix { "" } else { " --trace" };
        replay_command(seed, &format!("{}{narrate}", self.flag()))
    }
}

/// The full `cargo run` line replaying `seed` with `flags`: a copy-paste
/// replays a failing seed from a clean checkout.
pub fn replay_command(seed: u64, flags: &str) -> String {
    format!(
        "replay: cargo run --release -p mirage-bench --bin fault_storm -- --seed {seed}{flags}"
    )
}

/// [`FuzzFamily::Classic`] under `protocol`, untraced.
pub fn run_fuzz_seed_protocol(seed: u64, protocol: FuzzProtocol) -> FuzzOutcome {
    classic(seed, false, protocol, false, false).0
}

/// [`FuzzFamily::Classic`] under `protocol`, traced: both offline
/// oracles run over the trace and their violations merge into the
/// outcome.
pub fn run_fuzz_seed_protocol_traced(
    seed: u64,
    protocol: FuzzProtocol,
) -> (FuzzOutcome, Vec<TraceEvent>) {
    let (out, trace, _) = classic(seed, true, protocol, false, false);
    (out, trace)
}

/// Draws the fault storm every family runs under: random link
/// misbehaviour until `horizon_ms`, then a perfect network so the run
/// must *converge*, not merely survive; and up to two distinct sites
/// from `crash_candidates` crash and restart inside the storm. Draws
/// the link rates, then the crashes, from `rng`.
pub fn storm_plan(
    rng: &mut Prng,
    seed: u64,
    horizon_ms: u64,
    mut crash_candidates: Vec<usize>,
) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = seed;
    plan.horizon = SimTime::ZERO + SimDuration::from_millis(horizon_ms);
    plan.gap_wait = SimDuration::from_millis(25);
    plan.default_link = LinkFaults {
        drop_pm: rng.below(300) as u32,
        dup_pm: rng.below(200) as u32,
        delay_pm: rng.below(1_500) as u32,
        max_delay: SimDuration::from_millis(1 + rng.below(30)),
    };
    for _ in 0..rng.below(3) {
        let i = rng.below(crash_candidates.len() as u64) as usize;
        let site = crash_candidates.swap_remove(i);
        let at = SimTime::ZERO + SimDuration::from_millis(200 + rng.below(horizon_ms - 400));
        let down = SimDuration::from_millis(80 + rng.below(600));
        plan.crashes.push(CrashEvent { site: SiteId(site as u16), at, back_at: at + down });
    }
    plan
}

/// One writer's write-visibility expectation: it wrote only the word at
/// `offset` of each page, and `last[p]` is the last value it wrote to
/// page `p` (`None` if it never wrote there).
pub struct Expectation {
    /// Names the writer in a violation (`proc 3`, `station 1`).
    pub label: String,
    /// The writer's private word offset.
    pub offset: usize,
    /// Last value written per page, filled in while the world runs.
    pub last: Arc<Mutex<Vec<Option<u32>>>>,
}

/// The quiescence tail every fuzz family ends in.
pub struct Quiescence {
    /// The driving seed (reported in the outcome).
    pub seed: u64,
    /// The shared segment.
    pub seg: SegmentId,
    /// Pages `0..pages` of `seg` are checked.
    pub pages: u64,
    /// Whose notion of coherence and of the authoritative copy applies.
    pub protocol: FuzzProtocol,
    /// The storm's end; programs get 120 s past it to complete.
    pub horizon: SimTime,
    /// The world is tracing: run both offline trace oracles too.
    pub traced: bool,
}

impl Quiescence {
    /// Runs `world` to completion, drains residual protocol traffic
    /// (trailing acks and retransmissions) for 5 s in the clean window,
    /// and checks the structural invariants and every expectation's
    /// write visibility; on traced runs, both offline trace oracles
    /// follow. Each oracle is vacuous over the other protocol's event
    /// kinds, so both always run and a stray cross-protocol emission
    /// cannot hide.
    pub fn check(
        &self,
        world: &mut World,
        expectations: &[Expectation],
    ) -> (FuzzOutcome, Vec<TraceEvent>) {
        let completed =
            world.run_to_completion(self.horizon + SimDuration::from_millis(120_000));
        world.run_for(SimDuration::from_millis(5_000));

        let mut violations = Vec::new();
        if completed {
            violations = structural_violations(world, self.seg, self.pages, self.protocol);
            for e in expectations {
                for (p, want) in e.last.lock().expect("poisoned").iter().enumerate() {
                    let Some(want) = *want else { continue };
                    let got =
                        authoritative_frame(world, self.seg, PageNum(p as u32), self.protocol)
                            .map(|f| f.load_u32(e.offset));
                    if got != Some(want) {
                        violations.push(format!(
                            "write visibility: {} page {p}: last wrote {want}, \
                             authoritative copy holds {got:?}",
                            e.label
                        ));
                    }
                }
            }
        }

        let trace = world.take_trace();
        if self.traced && completed {
            let causal = mirage_trace::check(&trace).violations;
            violations.extend(causal.into_iter().map(|v| format!("trace checker: {v}")));
            let ts = mirage_trace::check_timestamps(&trace).violations;
            violations.extend(ts.into_iter().map(|v| format!("timestamp oracle: {v}")));
        }

        let outcome = FuzzOutcome {
            seed: self.seed,
            completed,
            violations,
            stuck: world.stuck_pids(),
            stats: world.fault_stats(),
            accesses: world.total_accesses(),
        };
        (outcome, trace)
    }
}

/// A randomized workload process: writes a monotone value series to its
/// own word of random pages, reads other processes' words, and mixes in
/// yields and compute bursts so the scheduler states get shuffled too.
struct FuzzProgram {
    seg: SegmentId,
    pages: u64,
    /// This process's private word offset (no other process writes it).
    offset: usize,
    /// Bound on read offsets: one word per process in the world.
    total_procs: u64,
    rng: Prng,
    ops_left: u32,
    done: u64,
    next_val: u32,
    /// Last value issued per page, shared with the harness for the
    /// post-run visibility check.
    expected: Arc<Mutex<Vec<Option<u32>>>>,
}

impl Program for FuzzProgram {
    fn step(&mut self, _last_read: Option<u32>) -> Op {
        if self.ops_left == 0 {
            return Op::Exit;
        }
        self.ops_left -= 1;
        self.done += 1;
        let page = PageNum(self.rng.below(self.pages) as u32);
        match self.rng.below(10) {
            0 => Op::Yield,
            1 => Op::Compute(SimDuration::from_micros(50 + self.rng.below(3_000))),
            2..=5 => {
                let off = self.rng.below(self.total_procs) as usize * 4;
                Op::Read(MemRef::new(self.seg, page, off))
            }
            _ => {
                let v = self.next_val;
                self.next_val += 1;
                self.expected.lock().expect("poisoned")[page.index()] = Some(v);
                Op::Write(MemRef::new(self.seg, page, self.offset), v)
            }
        }
    }

    fn metric(&self) -> u64 {
        self.done
    }

    fn label(&self) -> &str {
        "fuzz"
    }
}

/// Spawns the closed-loop fuzz processes: `count` on each listed
/// `(site, count)`, process `k` owning the word at offset `4k` of every
/// page. Each process's op budget is drawn from `rng` in spawn order.
fn spawn_programs(
    world: &mut World,
    rng: &mut Prng,
    seed: u64,
    seg: SegmentId,
    pages: u64,
    per_site: &[(usize, usize)],
) -> Vec<Expectation> {
    let total_procs: u64 = per_site.iter().map(|&(_, c)| c as u64).sum();
    let mut expectations = Vec::new();
    for &(site, count) in per_site {
        for _ in 0..count {
            let k = expectations.len();
            let last = Arc::new(Mutex::new(vec![None; pages as usize]));
            let prog = FuzzProgram {
                seg,
                pages,
                offset: k * 4,
                total_procs,
                rng: Prng::new(seed.wrapping_add(0x9E37 * (k as u64 + 1))),
                ops_left: 12 + rng.below(20) as u32,
                done: 0,
                next_val: (k as u32) * 1_000_000 + 1,
                expected: Arc::clone(&last),
            };
            world.spawn(site, Box::new(prog), pages as usize);
            expectations.push(Expectation { label: format!("proc {k}"), offset: k * 4, last });
        }
    }
    expectations
}

/// The classic scenario (see [`FuzzFamily::Classic`], `Migrate`,
/// `Delta`), plus every page's authoritative bytes at quiescence for
/// the cross-protocol diff (empty unless the run completed).
fn classic(
    seed: u64,
    traced: bool,
    protocol: FuzzProtocol,
    migrate: bool,
    delta_grants: bool,
) -> (FuzzOutcome, Vec<TraceEvent>, Vec<Vec<u8>>) {
    let mut rng = Prng::new(seed ^ 0xF0_55ED);
    let n_sites = 2 + rng.below(3) as usize; // 2..=4
    let pages = 1 + rng.below(2); // 1..=2

    let mut cfg = SimConfig::default();
    cfg.protocol.delta = DeltaPolicy::Uniform(Delta(rng.below(3) as u32));
    cfg.protocol.retry = Some(RetryPolicy::default());
    // Set after every config draw: delta mode and the rival protocols
    // replay the classic seed's exact scenario.
    cfg.protocol.delta_grants = delta_grants;
    protocol.apply(&mut cfg);

    let mut world = World::new(n_sites, cfg);
    if traced {
        world.enable_tracing();
    }
    let seg = world.create_segment(0, pages as usize);

    // Any site may crash — including the library site, whose request
    // queue must be reconstructed on restart.
    let horizon_ms = 1_500 + rng.below(2_500);
    let plan = storm_plan(&mut rng, seed, horizon_ms, (0..n_sites).collect());
    let horizon = plan.horizon;
    world.install_fault_plan(plan);

    if migrate {
        // A separate PRNG stream: adding the schedule must not perturb
        // the world shape, workload, or fault plan above.
        let mut mrng = Prng::new(seed ^ 0x4D31_6772_A7E5);
        let moves = 1 + mrng.below(3); // 1..=3 handoffs
        let schedule: Vec<MigrationEvent> = (0..moves)
            .map(|_| MigrationEvent {
                at: SimTime::ZERO
                    + SimDuration::from_millis(300 + mrng.below(horizon_ms + 5_000)),
                seg,
                to: SiteId(mrng.below(n_sites as u64) as u16),
                shard: None,
            })
            .collect();
        world.set_placement_policy(PlacementPolicy::Manual(schedule));
    }

    // Processes: 1–2 per site, each with a dedicated word per page.
    let per_site: Vec<(usize, usize)> =
        (0..n_sites).map(|s| (s, 1 + rng.below(2) as usize)).collect();
    let expectations = spawn_programs(&mut world, &mut rng, seed, seg, pages, &per_site);

    let tail = Quiescence { seed, seg, pages, protocol, horizon, traced };
    let (outcome, trace) = tail.check(&mut world, &expectations);
    let final_pages = if outcome.completed {
        (0..pages)
            .map(|p| {
                authoritative_frame(&world, seg, PageNum(p as u32), protocol)
                    .map(|f| f.as_bytes().to_vec())
                    .unwrap_or_default()
            })
            .collect()
    } else {
        Vec::new()
    };
    (outcome, trace, final_pages)
}

/// The large scenario (see [`FuzzFamily::Large`]).
fn large(seed: u64, traced: bool, sites: Option<usize>) -> (FuzzOutcome, Vec<TraceEvent>) {
    let mut rng = Prng::new(seed ^ 0x001A_26E5_17E5);
    let n_sites = sites.unwrap_or_else(|| 65 + rng.below(96) as usize); // 65..=160
    let pages = 4 + rng.below(5); // 4..=8

    let mut cfg = SimConfig::default();
    cfg.protocol.delta = DeltaPolicy::Uniform(Delta(rng.below(3) as u32));
    cfg.protocol.retry = Some(RetryPolicy::default());
    // 1–3 pages per shard over 4–8 pages: always at least two shards,
    // so role handoffs and forwarding stubs are range-scoped.
    cfg.protocol.shard_pages = 1 + rng.below(3) as u32;
    let shard_count = (pages as u32).div_ceil(cfg.protocol.shard_pages).max(1);

    let mut world = World::new(n_sites, cfg);
    if traced {
        world.enable_tracing();
    }
    let seg = world.create_segment(0, pages as usize);

    // The workload lives on a handful of *active* sites scattered over
    // the whole id range — a fleet where most machines are quiet. Site 0
    // (the library home) always participates; at least one active site
    // has an id past 63, so chunked reader masks actually circulate.
    let mut active: Vec<usize> = vec![0];
    let extras = 2 + rng.below(3) as usize; // 2..=4 more sites
    while active.len() < 1 + extras {
        let s = rng.below(n_sites as u64) as usize;
        if !active.contains(&s) {
            active.push(s);
        }
    }
    if !active.iter().any(|&s| s > 63) {
        let s = 64 + rng.below((n_sites - 64) as u64) as usize;
        if !active.contains(&s) {
            active.push(s);
        }
    }

    // Crashes hit *active* sites (crashing an idle spectator exercises
    // nothing), including the library home with its sharded roles.
    let horizon_ms = 1_500 + rng.below(2_500);
    let plan = storm_plan(&mut rng, seed, horizon_ms, active.clone());
    let horizon = plan.horizon;
    world.install_fault_plan(plan);

    // Per-shard migrations are the point of the large scenario, so the
    // schedule is unconditional: 1–4 handoffs, each aimed at one shard
    // (or occasionally the whole segment), racing the storm above.
    let mut mrng = Prng::new(seed ^ 0x5AA5_D15C_0BA1);
    let moves = 1 + mrng.below(4);
    let schedule: Vec<MigrationEvent> = (0..moves)
        .map(|_| MigrationEvent {
            at: SimTime::ZERO + SimDuration::from_millis(300 + mrng.below(horizon_ms + 5_000)),
            seg,
            to: SiteId(active[mrng.below(active.len() as u64) as usize] as u16),
            shard: if mrng.below(5) == 0 {
                None
            } else {
                Some(mrng.below(shard_count as u64) as u32)
            },
        })
        .collect();
    world.set_placement_policy(PlacementPolicy::Manual(schedule));

    // 1–2 processes per active site, each with a dedicated word per page.
    let per_site: Vec<(usize, usize)> =
        active.iter().map(|&s| (s, 1 + rng.below(2) as usize)).collect();
    let expectations = spawn_programs(&mut world, &mut rng, seed, seg, pages, &per_site);

    let tail = Quiescence { seed, seg, pages, protocol: FuzzProtocol::Mirage, horizon, traced };
    tail.check(&mut world, &expectations)
}

/// [`FuzzFamily::Matrix`]: the classic seed under all three protocols
/// (identical world, workload, and fault plan); each rival's
/// authoritative page bytes are diffed against Mirage's, divergences
/// merged into the rival's `violations`, so `all(FuzzOutcome::is_ok)`
/// is the pass criterion.
fn run_fuzz_seed_matrix(seed: u64, traced: bool) -> Vec<(FuzzOutcome, Vec<TraceEvent>)> {
    let (mirage, trace, base) = classic(seed, traced, FuzzProtocol::Mirage, false, false);
    let mut runs = vec![(mirage, trace)];
    for p in [FuzzProtocol::Li, FuzzProtocol::Tardis] {
        let (mut out, trace, pages) = classic(seed, traced, p, false, false);
        // Page bytes are empty unless the run completed: only two
        // completed runs are compared.
        for (i, (a, b)) in base.iter().zip(&pages).enumerate() {
            if a != b {
                out.violations.push(format!(
                    "cross-protocol divergence: page {i} differs between \
                     mirage and {} (first diff at byte {})",
                    p.name(),
                    a.iter().zip(b.iter()).position(|(x, y)| x != y).unwrap_or(0),
                ));
            }
        }
        runs.push((out, trace));
    }
    runs
}

/// Structural coherence violations for the first `pages` pages of `seg`
/// at quiescence: Mirage/Li run the §5.0 invariants
/// ([`invariants::check_page`]), Tardis the exclusive-ownership
/// discipline.
fn structural_violations(
    world: &World,
    seg: SegmentId,
    pages: u64,
    protocol: FuzzProtocol,
) -> Vec<String> {
    if protocol == FuzzProtocol::Tardis {
        return tardis_quiescence_violations(world, seg, pages);
    }
    let mut violations = Vec::new();
    for p in 0..pages {
        let stores: Vec<(SiteId, &dyn PageStore)> =
            world.sites.iter().map(|s| (s.id, &s.store as &dyn PageStore)).collect();
        for v in invariants::check_page(&stores, seg, PageNum(p as u32)) {
            violations.push(format!("page {p}: {v:?}"));
        }
    }
    violations
}

/// Tardis structural invariants at quiescence. Unlike Mirage, stale
/// read copies at non-owner sites are *legal* (their leases simply
/// ended in logical time), so byte-identity across copies is not
/// checked; what must hold is exclusive-ownership discipline.
fn tardis_quiescence_violations(world: &World, seg: SegmentId, pages: u64) -> Vec<String> {
    let mut violations = Vec::new();
    for p in 0..pages {
        let page = PageNum(p as u32);
        let exclusive: Vec<SiteId> = world
            .sites
            .iter()
            .filter(|s| s.store.prot(seg, page) == PageProt::ReadWrite)
            .map(|s| s.id)
            .collect();
        if exclusive.len() > 1 {
            violations.push(format!(
                "page {p}: multiple exclusive holders at quiescence: {exclusive:?}"
            ));
        }
        let home = &world.sites[seg.library.index()];
        match home.driver.engine().tardis_home_view(seg, page).and_then(|h| h.owner) {
            Some(owner) => {
                if let Some(&bad) = exclusive.iter().find(|&&s| s != owner) {
                    violations.push(format!(
                        "page {p}: home records owner {owner:?} but {bad:?} holds an \
                         exclusive frame"
                    ));
                }
            }
            None => {
                if !exclusive.is_empty() {
                    violations.push(format!(
                        "page {p}: exclusive holders {exclusive:?} but the home \
                         records no owner"
                    ));
                }
            }
        }
    }
    violations
}

/// The authoritative copy of `page` at quiescence: the writer's (or
/// Tardis exclusive owner's) frame if one site holds the page
/// read-write; otherwise, under Mirage/Li, the first reader's frame
/// (byte-identical to every other reader's when the invariants hold),
/// and under Tardis the home's master.
fn authoritative_frame<'w>(
    world: &'w World,
    seg: SegmentId,
    page: PageNum,
    protocol: FuzzProtocol,
) -> Option<&'w PageData> {
    let holding = |prot| world.sites.iter().filter(move |s| s.store.prot(seg, page) == prot);
    let frame = |s: &'w Site| s.store.segment(seg).and_then(|ls| ls.frame(page));
    if let Some(writer) = holding(PageProt::ReadWrite).next() {
        return frame(writer);
    }
    match protocol {
        FuzzProtocol::Tardis => {
            world.sites[seg.library.index()].driver.engine().tardis_master(seg, page)
        }
        _ => holding(PageProt::Read).find_map(frame),
    }
}
