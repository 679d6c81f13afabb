//! Workload programs for the Mirage simulator.
//!
//! Each workload reproduces an application from the paper's evaluation:
//!
//! * [`pingpong`] — the §7.2 worst case (Figure 4): two processes at
//!   different sites alternately writing adjacent locations on one page;
//! * [`decrement`] — the §8.0 "representative" application (Figure 8):
//!   two conflicting read-writers decrementing separate values on the
//!   same page;
//! * [`ring`] — the N-site version of the worst case ("This application
//!   (or its N-site version) is a worst case for Mirage", §7.2);
//! * [`spinlock`] — the §7.2 test&set experiment: a busy-waiting lock
//!   sharing a page with the data it protects;
//! * [`readers`] — read-mostly sharing with an occasional writer, for
//!   the invalidation-scaling ablation (A4);
//! * [`background`] — a pure-compute process used to measure overall
//!   system throughput while another application thrashes (E10);
//! * [`falseshare`] — two writers on disjoint halves of one page, the
//!   sub-page delta-grant experiment's subject (S1);
//! * [`renewal`] — the write-private/read-shared mix that pits Tardis
//!   lease renewals against invalidation fan-out (T1).
//!
//! [`openloop`] stands apart: instead of a closed-loop program it
//! generates seeded *arrival schedules* (Poisson, deterministic, MMPP)
//! for the simulator's open-loop stations, so offered load is held
//! constant regardless of service capacity — the basis of the L1
//! latency-distribution and saturation experiments, and of the
//! open-loop fuzz family.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod background;
pub mod decrement;
pub mod falseshare;
pub mod openloop;
pub mod pingpong;
pub mod readers;
pub mod renewal;
pub mod ring;
pub mod spinlock;

pub use background::Background;
pub use decrement::Decrementer;
pub use falseshare::FalseSharing;
pub use openloop::{
    build_demands,
    exp_interval,
    latency_records,
    run_fuzz_seed_openloop,
    sample_arrivals,
    ArrivalProcess,
    DemandProfile,
};
pub use pingpong::{
    PingPongPinger,
    PingPongPonger,
};
pub use readers::{
    PeriodicWriter,
    Rereader,
};
pub use renewal::WriteReadMix;
pub use ring::RingMember;
pub use spinlock::{
    LockHolder,
    LockTester,
};
