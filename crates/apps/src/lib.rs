//! Applications of LBRM from §4 of the paper.
//!
//! Each module is an application layer over the `lbrm-core` machines:
//! payload codecs plus application state that consumes the receiver's
//! [`Delivery`](lbrm_core::machine::Delivery) and
//! [`Notice`](lbrm_core::machine::Notice) streams. They run unchanged
//! over the simulator (`lbrm-sim` + the facade's harness) and the UDP
//! endpoints (`lbrm-net`).
//!
//! * [`invalidation`] — WWW page invalidation (§4.3 and Appendix A): an
//!   HTTP server multicasts `TRANS/RETRANS ... UPDATE` messages; browser
//!   caches highlight RELOAD, optionally auto-refreshing from a
//!   piggybacked document body.
//! * [`filecache`] — distributed file caching without leases (§4.2):
//!   reliable invalidation channel per file server, cache dropped on
//!   loss of the server heartbeat.
//! * [`quotes`] — stock-quote / traffic-report dissemination (§4.1):
//!   last-value-wins boards with freshness tracking.
//! * [`factory`] — factory automation (§4.4): sensors with built-in
//!   audit logging and intermittently connected mobile monitors.
//! * [`terrain`] — the motivating DIS application (§1): terrain entities
//!   whose destruction events must reach every simulator within a
//!   fraction of a second.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factory;
pub mod filecache;
pub mod invalidation;
pub mod quotes;
pub mod terrain;
