//! LBRM — Log-Based Receiver-Reliable Multicast.
//!
//! Facade crate for the LBRM workspace, a reproduction of *"Log-Based
//! Receiver-Reliable Multicast for Distributed Interactive Simulation"*
//! (Holbrook, Singhal & Cheriton, SIGCOMM 1995):
//!
//! * [`wire`] — packet formats and codecs ([`lbrm_wire`]).
//! * [`core`] — the protocol state machines ([`lbrm_core`]).
//! * [`sim`] — the deterministic network simulator ([`lbrm_sim`]).
//! * [`net`] — threaded transports for real UDP multicast ([`lbrm_net`]).
//! * [`apps`] — the paper's §4 applications ([`lbrm_apps`]).
//! * [`harness`] — glue that runs the sans-IO machines inside the
//!   simulator, one group plan that places an LBRM group on simulated
//!   hosts or on endpoints over any transport, plus ready-made
//!   experiment scenarios (the 50-site DIS topology, SRM comparison
//!   sessions, failure injection).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete simulated session: one
//! terrain-entity source, a primary logger, two sites of receivers with
//! secondary loggers, loss on a tail circuit, and sub-RTT recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbrm_apps as apps;
pub use lbrm_core as core;
pub use lbrm_net as net;
pub use lbrm_sim as sim;
pub use lbrm_wire as wire;

pub mod harness;
