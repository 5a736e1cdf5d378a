//! Baseline protocols the paper compares LBRM against.
//!
//! * [`srm`] — the *wb* lightweight-sessions recovery style (§6):
//!   unorganized, fully multicast NACK/repair with randomized suppression
//!   timers. Fault tolerant, but every loss costs the whole group
//!   multicast traffic and ~3×RTT-to-source recovery latency, and a
//!   single lossy receiver becomes a "crying baby" for everyone.
//! * The **fixed heartbeat** baseline of §2.1.2 is not a separate
//!   machine: it is the variable schedule with `backoff: 1.0` in
//!   [`crate::sender::SenderConfig::heartbeat`].
//! * The **centralized logging** baseline (no secondary loggers, Figure
//!   7a) is a deployment shape: point every receiver's recovery targets
//!   directly at the primary logger.

pub mod srm;
