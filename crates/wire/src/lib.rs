//! Wire formats for Log-Based Receiver-Reliable Multicast (LBRM).
//!
//! This crate defines everything that crosses a network boundary in the
//! LBRM protocol suite (Holbrook, Singhal & Cheriton, SIGCOMM '95):
//!
//! * [`ids`] — strongly typed identifiers for hosts, sites, groups,
//!   sources and epochs.
//! * [`seq`] — 32-bit wrapping sequence numbers with serial-number
//!   comparison (in the style of RFC 1982).
//! * [`packet`] — the LBRM packet vocabulary: data, heartbeats, NACKs,
//!   retransmissions, logger acknowledgements, Acker Selection packets,
//!   discovery, replication and failover messages, and the session /
//!   repair messages used by the SRM-style (*wb*) baseline.
//! * [`codec`] — a compact, versioned binary encoding with an internet
//!   checksum, built on [`bytes`].
//! * [`bundle`] — DIS-style PDU bundling: MTU-bounded frames carrying
//!   many packets per datagram under a single checksum pass.
//! * [`text`] — the human-readable HTML document invalidation protocol of
//!   Appendix A (`TRANS` / `HEARTBEAT` / `RETRANS` lines and the
//!   `<!MULTICAST...>` association tag).
//!
//! The binary codec is deliberately simple: a fixed header (magic,
//! version, type, length, checksum) followed by a per-type body. It is
//! self-contained — no serde — so that the encoded layout is stable,
//! inspectable, and identical across the simulator and the real UDP
//! transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod codec;
pub mod ids;
pub mod packet;
pub mod seq;
pub mod text;

pub use bundle::{
    bundled_entry_len, decode_bundle, encode_bundle, is_bundle, BundleBuilder, BUNDLE_HEADER_LEN,
    DEFAULT_BUNDLE_MTU,
};
pub use codec::{decode, decode_bytes, encode, encode_into, WireError, MAX_PACKET_SIZE};
pub use ids::{EpochId, GroupId, HostId, SiteId, SourceId};
pub use packet::{Packet, SeqRange, TtlScope};
pub use seq::Seq;
