//! Deterministic discrete-event network simulator for LBRM experiments.
//!
//! The 1995 paper evaluates LBRM on wide-area internetworks whose defining
//! feature is the *tail circuit*: an expensive, congestible link joining
//! each site's LAN to the backbone (Figure 1). This crate reproduces that
//! environment on a laptop:
//!
//! * [`time`] — virtual time: the protocol's nanosecond clock.
//! * [`loss`] — per-segment loss models: Bernoulli, Gilbert–Elliott
//!   bursts, and deterministic outage windows (the paper's §2.1.1 "burst"
//!   congestion model).
//! * [`topology`] — sites (LAN + tail circuit + WAN distance) and hosts;
//!   per-segment propagation delay, bandwidth and FIFO queueing.
//! * [`world`] — the one serial event loop: actors (protocol endpoints) exchange
//!   [`lbrm_wire::Packet`]s over unicast and TTL-scoped multicast, set
//!   timers, and draw from per-host deterministic RNG streams.
//! * [`queue`] — the future-event queue behind the loop: a binary heap
//!   of timers beside one of everything else, both on `(deadline, push
//!   count)` from one counter, FIFO among same-instant events.
//! * [`stats`] — per-segment-class, per-packet-kind traffic accounting
//!   (the quantities the paper's evaluation counts), plus the
//!   [`stats::BundleStats`] ledger modeling PDU-bundling framing
//!   without perturbing the event stream.
//!
//! Everything is deterministic given the world seed: the same scenario
//! replays identically, which the test-suite asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loss;
pub mod queue;
pub mod stats;
pub mod time;
pub mod topology;
pub mod world;

pub use loss::LossModel;
pub use queue::{EventQueue, Popped};
pub use stats::{BundleStats, KindBundle, NetStats, SegmentClass};
pub use time::SimTime;
pub use topology::{SiteParams, Topology, TopologyBuilder};
pub use world::{Actor, Ctx, World};
