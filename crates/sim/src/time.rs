//! Virtual time.
//!
//! [`SimTime`] is the protocol clock, [`lbrm_core::time::Time`], counted
//! in nanoseconds since simulation start: machines and the simulator
//! share one clock, so nothing converts between them. Durations are
//! ordinary [`std::time::Duration`]s.

pub use lbrm_core::time::Time as SimTime;
