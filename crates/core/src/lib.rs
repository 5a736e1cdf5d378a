//! Log-Based Receiver-Reliable Multicast (LBRM) — the protocol.
//!
//! This crate implements the SIGCOMM '95 LBRM design (Holbrook, Singhal &
//! Cheriton) as a family of *sans-IO* state machines:
//!
//! * [`sender::Sender`] — the multicast source: sequencing, the variable
//!   heartbeat of §2.1, reliable handoff to the primary logging server,
//!   statistical acknowledgement (§2.3), primary failover (§2.2.3).
//! * [`logger::Logger`] — a logging server, usable as primary, replica,
//!   or per-site secondary (§2.2): logs the stream, serves NACKs, fetches
//!   misses from its parent, replicates, answers discovery, volunteers as
//!   Designated Acker.
//! * [`receiver::Receiver`] — gap- and heartbeat-based loss detection,
//!   MaxIT freshness tracking, recovery through the logging hierarchy.
//! * [`discovery::DiscoveryClient`] — expanding-ring scoped multicast
//!   search for a nearby logging service (§2.2.1).
//! * [`baseline`] — comparison protocols: the *wb*/SRM-style unorganized
//!   recovery of §6 (the fixed heartbeat of §2.1.2 is the variable
//!   schedule with `backoff: 1.0`).
//!
//! Machines implement [`machine::Machine`] and are driven through one
//! [`machine::Driver`] by the deterministic simulator (`lbrm-sim`, for
//! the paper's experiments) and the threaded UDP endpoints (`lbrm-net`,
//! for deployment), on one clock, [`time::Time`].
//!
//! Every machine can additionally report protocol events (heartbeats,
//! NACKs, repairs, re-multicasts, settlements, failover) through the
//! [`trace`] layer — attach a [`trace::TraceSink`] with
//! `set_tracer`; the default disabled tracer costs one branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod discovery;
pub mod estimate;
pub mod gaps;
pub mod heartbeat;
pub mod logger;
pub mod logstore;
pub mod machine;
pub mod receiver;
mod recovery;
pub mod sender;
pub mod slab;
pub mod statack;
pub mod time;

pub use lbrm_trace as trace;

pub use machine::{Action, Actions, Delivery, Driver, Input, LossSignal, Machine, Notice};
pub use time::Time;
pub use trace::Tracer;
