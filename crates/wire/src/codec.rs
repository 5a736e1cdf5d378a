//! Binary encoding of [`Packet`]s.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! +--------+---------+------+--------+----------+----------------+
//! | magic  | version | type | length | checksum |   body ...     |
//! | u16    | u8      | u8   | u16    | u16      |                |
//! +--------+---------+------+--------+----------+----------------+
//! ```
//!
//! * `magic` is `0x4C42` (`"LB"`).
//! * `length` is the total packet length including the 8-byte header.
//! * `checksum` is the 16-bit internet checksum (RFC 1071) over the whole
//!   packet with the checksum field taken as zero.
//!
//! Each packet type is one row of the `layouts!` table at the bottom of
//! this file: its type tag, its label and its fields in wire order. A
//! field's width and encoding come from its type (the private `Field`
//! trait), so [`Packet::encoded_len`], encoding, decoding,
//! [`Packet::kind`], [`Packet::kind_index`] and [`PACKET_KINDS`] are all
//! generated from that row.
//! Variable-length fields are length-prefixed; a payload runs to the end
//! of the packet and is always the last field. Decoding is strict:
//! trailing bytes, bad lengths, unknown types and checksum mismatches are
//! all errors, so a corrupted packet is dropped at the wire layer rather
//! than confusing a state machine.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ids::{EpochId, GroupId, HostId, SourceId};
use crate::packet::{Packet, SeqRange};
use crate::seq::Seq;

/// Magic bytes identifying an LBRM packet ("LB").
pub const MAGIC: u16 = 0x4C42;
/// Current wire version.
pub const VERSION: u8 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 8;
/// Maximum encodable packet (fits the `length` field and a UDP datagram).
pub const MAX_PACKET_SIZE: usize = 65_507;

/// Errors produced while decoding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header, or body shorter than its length field.
    Truncated,
    /// Magic bytes did not match.
    BadMagic(u16),
    /// Unsupported version.
    BadVersion(u8),
    /// Unknown packet type tag.
    UnknownType(u8),
    /// Length field inconsistent with the buffer.
    BadLength {
        /// Length claimed by the header.
        claimed: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// Checksum mismatch (packet corrupted in flight).
    BadChecksum,
    /// A count or length field exceeds sane protocol limits.
    FieldOverflow,
    /// Packet exceeds [`MAX_PACKET_SIZE`] (encode side).
    TooLarge(usize),
    /// An encoded probability was not a finite value in `[0, 1]`.
    BadProbability,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown packet type {t}"),
            WireError::BadLength { claimed, actual } => {
                write!(
                    f,
                    "bad length: header claims {claimed}, buffer has {actual}"
                )
            }
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::FieldOverflow => write!(f, "field exceeds protocol limits"),
            WireError::TooLarge(n) => write!(f, "packet of {n} bytes exceeds maximum"),
            WireError::BadProbability => write!(f, "probability not in [0,1]"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum number of ranges accepted in one NACK.
pub const MAX_NACK_RANGES: usize = 1024;

/// RFC 1071 internet checksum.
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    checksum_fold(checksum_accumulate(data))
}

/// Sums `data` as big-endian u16 words (odd tail zero-padded) without
/// final folding, so multiple slices can contribute to one checksum.
///
/// The hot loop adds whole big-endian u64 words with end-around carry:
/// `2^16 ≡ 1 (mod 2^16 − 1)`, so `2^64 ≡ 1` as well, meaning a u64 is
/// congruent to the sum of its four u16 fields and carries wrapped back
/// in preserve the residue. One add-with-carry per 8 bytes replaces
/// four extract-and-add steps. The partial is folded to 32 bits on
/// return (the u16 fold happens in [`checksum_fold`]).
fn checksum_accumulate(data: &[u8]) -> u32 {
    let mut sum: u64 = 0;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
        let (s, carry) = sum.overflowing_add(w);
        sum = s + u64::from(carry);
    }
    // Fold 64 → 32 early so the tail and the caller's u32 arithmetic
    // cannot overflow; the residue mod 2^16 − 1 is unchanged.
    let mut folded = (sum >> 32) + (sum & 0xFFFF_FFFF);
    folded = (folded >> 32) + (folded & 0xFFFF_FFFF);
    let mut sum = ((folded >> 16) + (folded & 0xFFFF)) as u32;
    let mut rest = chunks.remainder().chunks_exact(2);
    for c in &mut rest {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = rest.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds carries and complements per RFC 1071.
fn checksum_fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// The packet checksum with the checksum field itself treated as zero,
/// computed over the two slices around it — no copy of the packet. Both
/// `data[..6]` and `data[8..]` start at even offsets, so word alignment
/// is preserved across the splice and the word sums add directly.
pub(crate) fn checksum_with_zeroed_field(data: &[u8]) -> u16 {
    debug_assert!(data.len() >= HEADER_LEN);
    checksum_fold(checksum_accumulate(&data[..6]) + checksum_accumulate(&data[8..]))
}

/// Encodes a packet into a fresh buffer.
///
/// ```
/// use lbrm_wire::{encode, decode, Packet, GroupId, SourceId, Seq, EpochId};
/// use bytes::Bytes;
///
/// let pkt = Packet::Data {
///     group: GroupId(1),
///     source: SourceId(7),
///     seq: Seq(42),
///     epoch: EpochId(0),
///     payload: Bytes::from_static(b"bridge destroyed"),
/// };
/// let wire = encode(&pkt).unwrap();
/// assert_eq!(decode(&wire).unwrap(), pkt);
/// ```
///
/// # Errors
///
/// [`WireError::TooLarge`] if the encoding would exceed
/// [`MAX_PACKET_SIZE`]; [`WireError::FieldOverflow`] if a list exceeds its
/// length-prefix range; [`WireError::BadProbability`] for a non-finite or
/// out-of-range `p_ack`.
pub fn encode(p: &Packet) -> Result<Bytes, WireError> {
    // `encoded_len()` is exact (property-tested equal to the bytes
    // produced), so one allocation serves the whole encode.
    let mut buf = BytesMut::with_capacity(p.encoded_len());
    encode_into(p, &mut buf)?;
    Ok(buf.freeze())
}

/// Appends the full encoding of `p` — checksum included — to `buf`
/// without allocating a fresh buffer. This is the steady-state send
/// path: a transport clears and reuses one scratch `BytesMut` across
/// sends instead of paying one allocation per packet ([`encode`] is now
/// a thin wrapper over this).
///
/// # Errors
///
/// Same conditions as [`encode`]. On error nothing useful is in `buf`;
/// callers reusing a scratch buffer should `clear()` before retrying.
pub fn encode_into(p: &Packet, buf: &mut BytesMut) -> Result<(), WireError> {
    let base = write_packet_zero_checksum(p, buf)?;
    let cksum = internet_checksum(&buf[base..]);
    buf[base + 6..base + 8].copy_from_slice(&cksum.to_be_bytes());
    Ok(())
}

/// Rejects packets the encoder cannot represent, without writing
/// anything: oversized range lists, out-of-range probabilities, and
/// encodings over [`MAX_PACKET_SIZE`]. Bundle building validates before
/// appending so a bad packet never leaves a half-written entry behind.
pub(crate) fn validate(p: &Packet) -> Result<(), WireError> {
    let len = p.encoded_len();
    if len > MAX_PACKET_SIZE {
        return Err(WireError::TooLarge(len));
    }
    match p {
        Packet::Nack { ranges, .. } | Packet::SrmNack { ranges, .. }
            if ranges.len() > MAX_NACK_RANGES =>
        {
            Err(WireError::FieldOverflow)
        }
        Packet::AckerSelect { p_ack, .. } if !is_probability(*p_ack) => {
            Err(WireError::BadProbability)
        }
        _ => Ok(()),
    }
}

/// Finite and in `[0, 1]` (NaN and the infinities fall outside the range).
fn is_probability(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

/// Appends the encoding of `p` with the checksum field left zero,
/// returning the offset where the packet starts. Shared by
/// [`encode_into`] (which then patches the checksum) and the bundle
/// builder (whose single frame checksum covers every entry, so inner
/// checksums stay zero).
pub(crate) fn write_packet_zero_checksum(
    p: &Packet,
    buf: &mut BytesMut,
) -> Result<usize, WireError> {
    validate(p)?;
    let len = p.encoded_len();
    let base = buf.len();
    buf.reserve(len);
    buf.put_u16(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag_of(p));
    buf.put_u16(len as u16); // validated: len <= MAX_PACKET_SIZE
    buf.put_u16(0); // checksum (zero until the caller patches it)
    put_body(p, buf);
    Ok(base)
}

/// A cursor over one encoded packet. It owns the datagram, so a trailing
/// payload takes the buffer itself (see `Field for Bytes`): the decoded
/// packet shares the datagram's allocation instead of copying it.
struct Reader {
    buf: Bytes,
    pos: usize,
}

impl Reader {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let src = self
            .buf
            .get(self.pos..self.pos + N)
            .ok_or(WireError::Truncated)?;
        let mut out = [0u8; N];
        out.copy_from_slice(src);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_be_bytes(self.take::<1>()?))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take::<8>()?))
    }
}

/// Decodes one packet from `data`, which must contain exactly one encoded
/// packet.
///
/// Compatibility wrapper over [`decode_bytes`]: the slice is copied into
/// a fresh [`Bytes`] once, then decoded with payloads sharing that
/// copy. Receive paths that already hold the datagram as [`Bytes`]
/// should call [`decode_bytes`] directly and skip the copy; the two are
/// equivalence-property-tested over every packet variant.
///
/// # Errors
///
/// Any [`WireError`] on malformed input; corrupted packets fail the
/// checksum and are reported as [`WireError::BadChecksum`].
pub fn decode(data: &[u8]) -> Result<Packet, WireError> {
    decode_bytes(Bytes::copy_from_slice(data))
}

/// Decodes one packet from `data` zero-copy: a payload field shares
/// `data`'s allocation, so decoding a data or repair packet never copies
/// its payload. This is the receive hot path — one datagram buffer in,
/// packets whose payloads alias it out.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_bytes(data: Bytes) -> Result<Packet, WireError> {
    decode_packet(data, true)
}

/// The decode core. `verify_checksum` is true for standalone packets;
/// bundle entries carry a zero checksum field (the frame checksum covers
/// them), so the bundle decoder passes false and this instead insists the
/// field really is zero — a nonzero inner checksum means the entry was
/// not produced by the bundle builder.
pub(crate) fn decode_packet(data: Bytes, verify_checksum: bool) -> Result<Packet, WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic = u16::from_be_bytes([data[0], data[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = data[2];
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let typ = data[3];
    let claimed = u16::from_be_bytes([data[4], data[5]]) as usize;
    if claimed != data.len() {
        return Err(WireError::BadLength {
            claimed,
            actual: data.len(),
        });
    }
    let wire_cksum = u16::from_be_bytes([data[6], data[7]]);
    if verify_checksum {
        if checksum_with_zeroed_field(&data) != wire_cksum {
            return Err(WireError::BadChecksum);
        }
    } else if wire_cksum != 0 {
        return Err(WireError::BadChecksum);
    }

    let mut r = Reader {
        buf: data,
        pos: HEADER_LEN,
    };
    let pkt = get_body(typ, &mut r)?;
    if r.pos != r.buf.len() {
        return Err(WireError::BadLength {
            claimed: 0,
            actual: r.buf.len() - r.pos,
        });
    }
    Ok(pkt)
}

/// One wire field type: its encoded width, how it is written, and how it
/// is read back. A packet's size and layout follow from its field types.
trait Field: Sized {
    fn wire_len(&self) -> usize;
    fn put(&self, buf: &mut BytesMut);
    fn get(r: &mut Reader) -> Result<Self, WireError>;
}

/// Fixed-width fields: a big-endian integer, or a newtype around one.
/// Row: `Type: reader-method put-method |value| raw-integer`.
macro_rules! fixed_fields {
    ($($t:ty: $get:ident $put:ident |$v:ident| $raw:expr;)*) => {$(
        impl Field for $t {
            fn wire_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn put(&self, buf: &mut BytesMut) {
                let $v = *self;
                buf.$put($raw);
            }
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                r.$get().map(Self::from)
            }
        }
    )*};
}

fixed_fields! {
    u8: u8 put_u8 |v| v;
    u32: u32 put_u32 |v| v;
    u64: u64 put_u64 |v| v;
    GroupId: u32 put_u32 |v| v.0;
    EpochId: u32 put_u32 |v| v.0;
    Seq: u32 put_u32 |v| v.0;
    SourceId: u64 put_u64 |v| v.0;
    HostId: u64 put_u64 |v| v.0;
}

/// The one `f64` on the wire is `AckerSelect::p_ack`, a probability.
impl Field for f64 {
    fn wire_len(&self) -> usize {
        8
    }
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u64(self.to_bits());
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let p = f64::from_bits(r.u64()?);
        if is_probability(p) {
            Ok(p)
        } else {
            Err(WireError::BadProbability)
        }
    }
}

/// A NACK range list: a `u16` count, then `(first, last)` pairs.
impl Field for Vec<SeqRange> {
    fn wire_len(&self) -> usize {
        2 + 8 * self.len()
    }
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u16(self.len() as u16);
        for range in self {
            range.first.put(buf);
            range.last.put(buf);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let n = usize::from(r.u16()?);
        if n > MAX_NACK_RANGES {
            return Err(WireError::FieldOverflow);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(SeqRange {
                first: Seq::get(r)?,
                last: Seq::get(r)?,
            });
        }
        Ok(out)
    }
}

/// A payload: a `u32` length that must run exactly to the end of the
/// packet, so a payload is always its variant's last field.
impl Field for Bytes {
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        buf.put_slice(self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let claimed = r.u32()? as usize;
        let actual = r.buf.len() - r.pos;
        if claimed != actual {
            return Err(WireError::BadLength { claimed, actual });
        }
        // Hand over the datagram itself, advanced past the fields before
        // the payload: no slice of it, so no reference-count round trip
        // on it. The reader is left empty (the shared static empty
        // buffer), so the trailing-bytes check passes.
        let mut payload = std::mem::take(&mut r.buf);
        payload.advance(r.pos);
        r.pos = 0;
        Ok(payload)
    }
}

/// Generates everything per-variant from one row per packet type:
/// `tag "label" Variant { fields in wire order }`.
macro_rules! layouts {
    ($($tag:literal $label:literal $variant:ident { $($field:ident),* })*) => {
        /// Every packet label, indexed by wire type tag − 1.
        pub const PACKET_KINDS: &[&str] = &[$($label),*];

        /// The [`PACKET_KINDS`] index of a packet label (the query side
        /// of [`Packet::kind_index`]); `None` for an unknown label.
        pub fn kind_index_of(label: &str) -> Option<usize> {
            match label {
                $($label => Some($tag - 1),)*
                _ => None,
            }
        }

        impl Packet {
            /// Short name for tracing and statistics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Packet::$variant { .. } => $label,)*
                }
            }

            /// This packet's index into [`PACKET_KINDS`] (its wire type
            /// tag − 1): a dense key for per-kind counters, so counting
            /// a packet hashes no label.
            pub fn kind_index(&self) -> usize {
                usize::from(tag_of(self)) - 1
            }

            /// Exact length in bytes that [`encode`] produces for this
            /// packet, computed from the field widths — no buffer is
            /// allocated and no checksum is run. This is the simulator's
            /// hot path: every simulated transmission needs the on-wire
            /// size, never the bytes.
            pub fn encoded_len(&self) -> usize {
                match self {
                    $(Packet::$variant { $($field),* } => HEADER_LEN $(+ $field.wire_len())*,)*
                }
            }
        }

        fn tag_of(p: &Packet) -> u8 {
            match p {
                $(Packet::$variant { .. } => $tag,)*
            }
        }

        fn put_body(p: &Packet, buf: &mut BytesMut) {
            match p {
                $(Packet::$variant { $($field),* } => { $($field.put(buf);)* })*
            }
        }

        // Struct-literal fields evaluate in the order written, so each
        // variant's fields are read in table order.
        fn get_body(tag: u8, r: &mut Reader) -> Result<Packet, WireError> {
            Ok(match tag {
                $($tag => Packet::$variant { $($field: Field::get(r)?),* },)*
                other => return Err(WireError::UnknownType(other)),
            })
        }
    };
}

layouts! {
    1 "data" Data { group, source, seq, epoch, payload }
    2 "heartbeat" Heartbeat { group, source, seq, epoch, hb_index, payload }
    3 "nack" Nack { group, source, requester, ranges }
    4 "retrans" Retrans { group, source, seq, payload }
    5 "log-ack" LogAck { group, source, primary_seq, replica_seq }
    6 "acker-select" AckerSelect { group, source, epoch, p_ack }
    7 "acker-volunteer" AckerVolunteer { group, source, epoch, logger }
    8 "packet-ack" PacketAck { group, source, epoch, seq, logger }
    9 "discovery-query" DiscoveryQuery { group, nonce, requester }
    10 "discovery-reply" DiscoveryReply { group, nonce, logger, level }
    11 "locate-primary" LocatePrimary { group, source, requester }
    12 "primary-is" PrimaryIs { group, source, primary }
    13 "repl-update" ReplUpdate { group, source, seq, payload }
    14 "repl-ack" ReplAck { group, source, seq }
    15 "srm-session" SrmSession { group, member, last_seq }
    16 "srm-nack" SrmNack { group, source, requester, ranges }
    17 "srm-repair" SrmRepair { group, source, seq, responder, payload }
    18 "elect-prepare" ElectPrepare { group, source, term, candidate }
    19 "elect-promise" ElectPromise { group, source, term, voter, log_end }
    20 "term-announce" TermAnnounce { group, source, term, leader }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SeqRange;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::Data {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(3),
                epoch: EpochId(4),
                payload: Bytes::from_static(b"bridge destroyed"),
            },
            Packet::Heartbeat {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(3),
                epoch: EpochId(4),
                hb_index: 7,
                payload: Bytes::new(),
            },
            Packet::Nack {
                group: GroupId(1),
                source: SourceId(2),
                requester: HostId(9),
                ranges: vec![
                    SeqRange {
                        first: Seq(5),
                        last: Seq(5),
                    },
                    SeqRange {
                        first: Seq(8),
                        last: Seq(12),
                    },
                ],
            },
            Packet::Retrans {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(5),
                payload: Bytes::from_static(b"payload"),
            },
            Packet::LogAck {
                group: GroupId(1),
                source: SourceId(2),
                primary_seq: Seq(10),
                replica_seq: Seq(8),
            },
            Packet::AckerSelect {
                group: GroupId(1),
                source: SourceId(2),
                epoch: EpochId(5),
                p_ack: 0.04,
            },
            Packet::AckerVolunteer {
                group: GroupId(1),
                source: SourceId(2),
                epoch: EpochId(5),
                logger: HostId(33),
            },
            Packet::PacketAck {
                group: GroupId(1),
                source: SourceId(2),
                epoch: EpochId(5),
                seq: Seq(33),
                logger: HostId(33),
            },
            Packet::DiscoveryQuery {
                group: GroupId(1),
                nonce: 0xDEAD_BEEF,
                requester: HostId(3),
            },
            Packet::DiscoveryReply {
                group: GroupId(1),
                nonce: 0xDEAD_BEEF,
                logger: HostId(44),
                level: 1,
            },
            Packet::LocatePrimary {
                group: GroupId(1),
                source: SourceId(2),
                requester: HostId(3),
            },
            Packet::PrimaryIs {
                group: GroupId(1),
                source: SourceId(2),
                primary: HostId(50),
            },
            Packet::ReplUpdate {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(6),
                payload: Bytes::from_static(b"replica copy"),
            },
            Packet::ReplAck {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(6),
            },
            Packet::SrmSession {
                group: GroupId(1),
                member: HostId(7),
                last_seq: Seq(99),
            },
            Packet::SrmNack {
                group: GroupId(1),
                source: SourceId(2),
                requester: HostId(7),
                ranges: vec![SeqRange::single(Seq(42))],
            },
            Packet::SrmRepair {
                group: GroupId(1),
                source: SourceId(2),
                seq: Seq(42),
                responder: HostId(8),
                payload: Bytes::from_static(b"repair"),
            },
            Packet::ElectPrepare {
                group: GroupId(1),
                source: SourceId(2),
                term: 3,
                candidate: HostId(0),
            },
            Packet::ElectPromise {
                group: GroupId(1),
                source: SourceId(2),
                term: 3,
                voter: HostId(51),
                log_end: Seq(12),
            },
            Packet::TermAnnounce {
                group: GroupId(1),
                source: SourceId(2),
                term: 3,
                leader: HostId(51),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for p in sample_packets() {
            let enc = encode(&p).expect("encode");
            let dec = decode(&enc).expect("decode");
            assert_eq!(p, dec, "roundtrip failed for {}", p.kind());
        }
    }

    #[test]
    fn kind_index_agrees_with_the_label_and_the_table() {
        let samples = sample_packets();
        assert_eq!(samples.len(), PACKET_KINDS.len(), "one sample per variant");
        for p in samples {
            assert_eq!(
                kind_index_of(p.kind()),
                Some(p.kind_index()),
                "{}",
                p.kind()
            );
            assert_eq!(PACKET_KINDS[p.kind_index()], p.kind());
        }
        assert_eq!(kind_index_of("no-such-kind"), None);
    }

    #[test]
    fn encoded_len_matches_encode_for_samples() {
        for p in sample_packets() {
            let enc = encode(&p).expect("encode");
            assert_eq!(
                p.encoded_len(),
                enc.len(),
                "length mismatch for {}",
                p.kind()
            );
        }
    }

    #[test]
    fn header_fields() {
        let p = &sample_packets()[0];
        let enc = encode(p).unwrap();
        assert_eq!(&enc[0..2], &MAGIC.to_be_bytes());
        assert_eq!(enc[2], VERSION);
        let len = u16::from_be_bytes([enc[4], enc[5]]) as usize;
        assert_eq!(len, enc.len());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let enc = encode(&sample_packets()[2]).unwrap();
        for cut in 0..enc.len() {
            let err = decode(&enc[..cut]);
            assert!(err.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn rejects_single_byte_corruption() {
        // Flipping any byte must be caught by magic/version/length/checksum
        // validation or produce a decode error — never a silent wrong packet.
        let enc = encode(&sample_packets()[0]).unwrap();
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0xFF;
            match decode(&bad) {
                Err(_) => {}
                Ok(p) => panic!("corruption at byte {i} decoded as {p:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_magic_version_type() {
        let enc = encode(&sample_packets()[0]).unwrap();
        let mut bad = enc.to_vec();
        bad[0] = 0x00;
        assert!(matches!(decode(&bad), Err(WireError::BadMagic(_))));

        let mut bad = enc.to_vec();
        bad[2] = 99;
        // checksum now wrong too; fix it so the version check is what fires
        bad[6] = 0;
        bad[7] = 0;
        let ck = internet_checksum(&bad);
        bad[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(decode(&bad), Err(WireError::BadVersion(99))));

        let mut bad = enc.to_vec();
        bad[3] = 250;
        bad[6] = 0;
        bad[7] = 0;
        let ck = internet_checksum(&bad);
        bad[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(decode(&bad), Err(WireError::UnknownType(250))));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let enc = encode(&sample_packets()[0]).unwrap();
        let mut bad = enc.to_vec();
        bad.push(0);
        assert!(matches!(decode(&bad), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn rejects_bad_probability() {
        let p = Packet::AckerSelect {
            group: GroupId(1),
            source: SourceId(1),
            epoch: EpochId(1),
            p_ack: 1.5,
        };
        assert_eq!(encode(&p), Err(WireError::BadProbability));
        let p = Packet::AckerSelect {
            group: GroupId(1),
            source: SourceId(1),
            epoch: EpochId(1),
            p_ack: f64::NAN,
        };
        assert_eq!(encode(&p), Err(WireError::BadProbability));
    }

    #[test]
    fn rejects_oversized_range_list() {
        let ranges = vec![SeqRange::single(Seq(1)); MAX_NACK_RANGES + 1];
        let p = Packet::Nack {
            group: GroupId(1),
            source: SourceId(1),
            requester: HostId(1),
            ranges,
        };
        assert_eq!(encode(&p), Err(WireError::FieldOverflow));
    }

    #[test]
    fn checksum_known_vectors() {
        // RFC 1071 example: the checksum of this sequence is 0xddf2's complement.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
        // Odd length pads with zero.
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn split_checksum_equals_zeroed_copy() {
        // The copy-free decode verification must agree with the naive
        // zero-the-field-and-copy formulation on even and odd lengths.
        for extra in 0..5usize {
            let data: Vec<u8> = (0..HEADER_LEN + 13 + extra)
                .map(|i| (i * 37) as u8)
                .collect();
            let mut zeroed = data.clone();
            zeroed[6] = 0;
            zeroed[7] = 0;
            assert_eq!(
                checksum_with_zeroed_field(&data),
                internet_checksum(&zeroed),
                "length {}",
                data.len()
            );
        }
    }

    #[test]
    fn heartbeat_with_payload_round_trips() {
        let p = Packet::Heartbeat {
            group: GroupId(9),
            source: SourceId(9),
            seq: Seq(100),
            epoch: EpochId(2),
            hb_index: 3,
            payload: Bytes::from_static(b"small state"),
        };
        let dec = decode(&encode(&p).unwrap()).unwrap();
        assert_eq!(p, dec);
    }
}
