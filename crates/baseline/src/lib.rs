//! Baseline shared-virtual-memory protocols for comparison with Mirage.
//!
//! Appendix I of the paper reviews Kai Li's shared virtual memory
//! (\[LI86\]) as the closest prior work. This crate implements Li's two main
//! page-ownership algorithms from "Memory Coherence in Shared Virtual
//! Memory Systems" (Li & Hudak, PODC '86):
//!
//! * [`li_central`] — the **centralized manager**: one manager site per
//!   page tracks the owner and the copy set; requests are forwarded to
//!   the owner; the last writer becomes the new owner;
//! * [`li_distributed`] — the **dynamic distributed manager**: no fixed
//!   manager; each site keeps a `probOwner` hint and requests chase the
//!   hint chain to the true owner.
//!
//! Both are exercised through [`common::DsmProtocol`], a trace-driven
//! interface that counts the messages each access needs and prices them
//! with the paper's calibrated [`mirage_net::NetCosts`].
//! [`mirage_adapter::MirageCost`] wraps the real protocol engine behind
//! the same interface, so benchmark B1 can run identical access traces
//! through all the protocols. Under `ProtocolConfig::tardis()` the same
//! adapter runs the engine's Tardis timestamp coherence (Yu & Devadas),
//! B1's third rival.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod li_central;
pub mod li_distributed;
pub mod mirage_adapter;

pub use common::{
    AccessTrace,
    CostReport,
    DsmProtocol,
    TraceOp,
};
pub use li_central::LiCentral;
pub use li_distributed::LiDistributed;
pub use mirage_adapter::MirageCost;
