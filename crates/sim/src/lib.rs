//! A deterministic discrete-event simulator of the paper's environment:
//! VAX 11/750 sites running Locus, connected by point-to-point virtual
//! circuits over a 10 Mbit Ethernet.
//!
//! The simulator exists because the paper's evaluation is inseparable
//! from its environment: the worst-case application (Figure 7) measures
//! the interaction of the DSM protocol with *scheduling quanta*,
//! *interrupt servicing*, and *message costs*; the representative
//! application (Figure 8) measures the Δ window against the same costs.
//! Every cost constant is taken from the paper via
//! [`mirage_net::NetCosts`]; the protocol logic is the real
//! [`mirage_core::SiteEngine`] — the simulator fabricates nothing but
//! time.
//!
//! # Scheduling model
//!
//! Each site has one CPU. User processes run round-robin with a
//! 6-tick (≈100 ms) quantum. Kernel protocol work (the Locus lightweight
//! server processes, §6.0) runs with priority **but only at scheduling
//! points** — when the running process blocks, yields, sleeps, exits, or
//! exhausts its quantum. This models the System V behaviour the paper
//! leans on: a busy-waiting process holds the CPU for its whole quantum,
//! which is exactly why the paper added `yield()` (§7.2) and why Figure
//! 7's curves intersect at Δ = quantum.
//!
//! `yield()` moves the caller to the back of the run queue; if no other
//! process is ready the caller sleeps for 2 ticks (≈33 ms), reproducing
//! the paper's "2.75 sleeps of 33 msecs" accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calendar;
pub mod faults;
pub mod fuzz;
pub mod instrument;
pub mod openloop;
pub mod process;
pub mod program;
pub mod site;
pub mod world;

pub use calendar::CalendarQueue;
pub use faults::FaultStats;
pub use fuzz::{
    authoritative_value,
    run_fuzz_seed,
    run_fuzz_seed_delta,
    run_fuzz_seed_delta_traced,
    run_fuzz_seed_large,
    run_fuzz_seed_large_traced,
    run_fuzz_seed_matrix,
    run_fuzz_seed_migrating,
    run_fuzz_seed_migrating_traced,
    run_fuzz_seed_protocol,
    run_fuzz_seed_protocol_traced,
    run_fuzz_seed_sized_traced,
    run_fuzz_seed_traced,
    structural_violations,
    FuzzOutcome,
    FuzzProtocol,
};
pub use instrument::Instrumentation;
pub use openloop::{
    OpenLoopDemand,
    OpenLoopRecord,
    OpenLoopStation,
    StationHandle,
    StationState,
};
pub use process::{
    ProcState,
    Process,
};
pub use program::{
    MemRef,
    Op,
    Program,
};
pub use site::SchedParams;
pub use world::{
    LoopCounters,
    MigrationEvent,
    PlacementPolicy,
    SimConfig,
    World,
};
