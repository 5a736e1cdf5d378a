//! DIS-style PDU bundling: many packets in one datagram.
//!
//! High-rate simulation traffic and NACK-storm repair serving both emit
//! long runs of small packets to one destination; sending each as its
//! own datagram pays per-datagram syscall, header, and checksum costs N
//! times. A bundle frame amortizes all three (all integers big-endian):
//!
//! ```text
//! +--------+---------+-------+--------+----------+-------------------+
//! | magic  | version | count | length | checksum | entries ...       |
//! | u16    | u8      | u8    | u16    | u16      |                   |
//! +--------+---------+-------+--------+----------+-------------------+
//! entry: | len u16 | packet bytes (checksum field zero) |
//! ```
//!
//! * `magic` is `0x4C44` (`"LD"`), distinct from the packet magic so a
//!   receiver classifies a datagram by its first two bytes.
//! * `length` is the total frame length including the 8-byte header.
//! * `checksum` is **one** RFC 1071 pass over the whole frame with the
//!   field zeroed — entries carry zero checksums (verified to be zero on
//!   decode), so bundling N packets never runs N+1 checksums.
//!
//! The MTU flush rule: [`BundleBuilder::push`] seals the in-progress
//! frame when adding the next packet would push it past the configured
//! MTU (or past 255 entries); a packet bigger than the MTU alone still
//! travels, as a one-entry "jumbo" frame, bounded only by
//! [`MAX_PACKET_SIZE`]. Unbundling yields packets in push order, so a
//! receiver observes exactly the sequence it would have seen unbundled.

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{self, WireError, HEADER_LEN, MAX_PACKET_SIZE, VERSION};
use crate::packet::Packet;

/// Magic bytes identifying a bundle frame ("LD").
pub const BUNDLE_MAGIC: u16 = 0x4C44;
/// Bundle frame header length in bytes.
pub const BUNDLE_HEADER_LEN: usize = 8;
/// Per-entry framing overhead (the `len` prefix).
pub const ENTRY_PREFIX_LEN: usize = 2;
/// Default flush threshold: a conservative Ethernet-path MTU, so a full
/// bundle still fits one unfragmented datagram on typical WANs.
pub const DEFAULT_BUNDLE_MTU: usize = 1400;
/// Maximum packets per frame (the `count` field is a `u8`).
pub const MAX_BUNDLE_PACKETS: usize = 255;

/// Whether a received datagram is a bundle frame (vs a bare packet),
/// decided from the magic in its first two bytes.
pub fn is_bundle(data: &[u8]) -> bool {
    data.len() >= 2 && u16::from_be_bytes([data[0], data[1]]) == BUNDLE_MAGIC
}

/// Bytes `p` occupies inside a bundle frame: its encoding plus the
/// entry length prefix. Arithmetic only — this is what the simulator
/// uses to model bundle framing without serializing.
pub fn bundled_entry_len(p: &Packet) -> usize {
    ENTRY_PREFIX_LEN + p.encoded_len()
}

/// Incremental, MTU-bounded bundle assembly over two reusable scratch
/// buffers — steady-state bundling never allocates.
///
/// [`push`](Self::push) appends a packet to the in-progress frame; when
/// the packet does not fit, the frame is sealed (count, length and the
/// single checksum patched in place) and returned for sending while the
/// packet starts the next frame. [`flush`](Self::flush) seals whatever
/// remains. Frames come back as `&[u8]` borrows of the builder's own
/// storage, so the caller sends straight from the scratch.
pub struct BundleBuilder {
    mtu: usize,
    buf: BytesMut,
    sealed: BytesMut,
    count: usize,
}

impl BundleBuilder {
    /// A builder flushing at `mtu` bytes per frame. Clamped to
    /// `[BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN + HEADER_LEN,
    /// MAX_PACKET_SIZE]` so every frame can hold at least a minimal
    /// packet and no frame can exceed a UDP datagram.
    pub fn new(mtu: usize) -> BundleBuilder {
        let floor = BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN + HEADER_LEN;
        BundleBuilder {
            mtu: mtu.clamp(floor, MAX_PACKET_SIZE),
            buf: BytesMut::with_capacity(DEFAULT_BUNDLE_MTU),
            sealed: BytesMut::with_capacity(DEFAULT_BUNDLE_MTU),
            count: 0,
        }
    }

    /// A builder at [`DEFAULT_BUNDLE_MTU`].
    pub fn with_default_mtu() -> BundleBuilder {
        BundleBuilder::new(DEFAULT_BUNDLE_MTU)
    }

    /// The configured flush threshold.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Packets accumulated in the in-progress (unsealed) frame.
    pub fn pending(&self) -> usize {
        self.count
    }

    /// True when no packets are awaiting a flush.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends `p`. When `p` does not fit the in-progress frame, that
    /// frame is sealed and returned — send it before pushing again —
    /// and `p` opens the next frame.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] when `p` cannot fit even a frame of its
    /// own (its entry would exceed [`MAX_PACKET_SIZE`]); any
    /// [`codec::validate`]-rejected packet errors without disturbing the
    /// in-progress frame.
    pub fn push(&mut self, p: &Packet) -> Result<Option<&[u8]>, WireError> {
        codec::validate(p)?;
        let entry = bundled_entry_len(p);
        if BUNDLE_HEADER_LEN + entry > MAX_PACKET_SIZE {
            return Err(WireError::TooLarge(BUNDLE_HEADER_LEN + entry));
        }
        let flushed = self.count > 0
            && (self.count == MAX_BUNDLE_PACKETS || self.buf.len() + entry > self.mtu);
        if flushed {
            self.seal();
        }
        if self.count == 0 {
            self.buf.put_u16(BUNDLE_MAGIC);
            self.buf.put_u8(VERSION);
            self.buf.put_u8(0); // count placeholder
            self.buf.put_u16(0); // length placeholder
            self.buf.put_u16(0); // checksum placeholder
        }
        let at = self.buf.len();
        self.buf.put_u16(0); // entry length placeholder
        let written = codec::write_packet_zero_checksum(p, &mut self.buf)?;
        let plen = self.buf.len() - written;
        self.buf[at..at + 2].copy_from_slice(&(plen as u16).to_be_bytes());
        self.count += 1;
        Ok(flushed.then(|| &self.sealed[..]))
    }

    /// Seals and returns the in-progress frame, or `None` when empty.
    /// The returned slice stays valid until the next `push`/`flush`.
    pub fn flush(&mut self) -> Option<&[u8]> {
        if self.count == 0 {
            return None;
        }
        self.seal();
        Some(&self.sealed[..])
    }

    /// Discards the in-progress frame. A sender that abandons a run
    /// half-way (its socket refused a sealed frame) calls this so the
    /// packet that opened the next frame cannot leak into a later run to
    /// another destination.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.count = 0;
    }

    /// Patches count, length and the single frame checksum in place,
    /// then swaps the frame into the sealed slot (both allocations are
    /// kept and reused).
    fn seal(&mut self) {
        debug_assert!(self.count >= 1 && self.count <= MAX_BUNDLE_PACKETS);
        let total = self.buf.len();
        debug_assert!(total <= MAX_PACKET_SIZE);
        self.buf[3] = self.count as u8;
        self.buf[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        // The checksum field is still zero, so one pass over the frame
        // is exactly the checksum-with-zeroed-field.
        let cksum = codec::internet_checksum(&self.buf);
        self.buf[6..8].copy_from_slice(&cksum.to_be_bytes());
        std::mem::swap(&mut self.buf, &mut self.sealed);
        self.buf.clear();
        self.count = 0;
    }
}

/// Bundles `packets` into MTU-bounded frames, preserving order. A
/// convenience over [`BundleBuilder`] for callers that want owned
/// frames (tests, benchmarks); transports should drive the builder
/// directly and send from its scratch.
///
/// # Errors
///
/// Any error [`BundleBuilder::push`] reports.
pub fn encode_bundle(packets: &[Packet], mtu: usize) -> Result<Vec<Bytes>, WireError> {
    let mut b = BundleBuilder::new(mtu);
    let mut out = Vec::new();
    for p in packets {
        if let Some(frame) = b.push(p)? {
            out.push(Bytes::copy_from_slice(frame));
        }
    }
    if let Some(frame) = b.flush() {
        out.push(Bytes::copy_from_slice(frame));
    }
    Ok(out)
}

/// Decodes a bundle frame into its packets, in bundled order. Payloads
/// are zero-copy slices of `data` (see [`crate::decode_bytes`]): one
/// frame checksum pass, then per-entry structural decoding with no
/// per-packet checksum and no payload copies.
///
/// # Errors
///
/// Strict, like packet decoding: bad magic/version, a zero count, a
/// length field disagreeing with the buffer, frames over
/// [`MAX_PACKET_SIZE`], checksum mismatch, truncated or trailing entry
/// bytes, and any per-entry decode error all reject the whole frame.
pub fn decode_bundle(data: &Bytes) -> Result<Vec<Packet>, WireError> {
    if data.len() < BUNDLE_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic = u16::from_be_bytes([data[0], data[1]]);
    if magic != BUNDLE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if data[2] != VERSION {
        return Err(WireError::BadVersion(data[2]));
    }
    let count = data[3] as usize;
    let claimed = u16::from_be_bytes([data[4], data[5]]) as usize;
    if claimed != data.len() {
        return Err(WireError::BadLength {
            claimed,
            actual: data.len(),
        });
    }
    if data.len() > MAX_PACKET_SIZE {
        return Err(WireError::TooLarge(data.len()));
    }
    if count == 0 {
        return Err(WireError::FieldOverflow);
    }
    let wire_cksum = u16::from_be_bytes([data[6], data[7]]);
    if codec::checksum_with_zeroed_field(data) != wire_cksum {
        return Err(WireError::BadChecksum);
    }
    let mut out = Vec::with_capacity(count);
    let mut pos = BUNDLE_HEADER_LEN;
    for _ in 0..count {
        if data.len() - pos < ENTRY_PREFIX_LEN {
            return Err(WireError::Truncated);
        }
        let len = u16::from_be_bytes([data[pos], data[pos + 1]]) as usize;
        pos += ENTRY_PREFIX_LEN;
        if data.len() - pos < len {
            return Err(WireError::Truncated);
        }
        let entry = data.slice(pos..pos + len);
        pos += len;
        out.push(codec::decode_packet(entry, false)?);
    }
    if pos != data.len() {
        return Err(WireError::BadLength {
            claimed: pos,
            actual: data.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EpochId, GroupId, HostId, SourceId};
    use crate::packet::SeqRange;
    use crate::seq::Seq;

    fn data(seq: u32, payload: &'static [u8]) -> Packet {
        Packet::Data {
            group: GroupId(1),
            source: SourceId(2),
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(payload),
        }
    }

    fn retrans(seq: u32, size: usize) -> Packet {
        Packet::Retrans {
            group: GroupId(1),
            source: SourceId(2),
            seq: Seq(seq),
            payload: Bytes::from(vec![0x5A; size]),
        }
    }

    #[test]
    fn roundtrip_preserves_order_and_contents() {
        let packets: Vec<Packet> = (0..40).map(|i| retrans(i, 100)).collect();
        let frames = encode_bundle(&packets, DEFAULT_BUNDLE_MTU).unwrap();
        assert!(frames.len() > 1, "40 x ~130B must span several MTU frames");
        let mut got = Vec::new();
        for f in &frames {
            assert!(is_bundle(f));
            got.extend(decode_bundle(f).unwrap());
        }
        assert_eq!(got, packets, "unbundling must yield packets in order");
    }

    #[test]
    fn mtu_flush_rule_bounds_every_frame() {
        let packets: Vec<Packet> = (0..100).map(|i| retrans(i, 64)).collect();
        for mtu in [200, 512, 1400] {
            let frames = encode_bundle(&packets, mtu).unwrap();
            for f in &frames {
                assert!(
                    f.len() <= mtu,
                    "frame of {} bytes exceeds mtu {mtu}",
                    f.len()
                );
            }
            let total: usize = frames.iter().map(|f| decode_bundle(f).unwrap().len()).sum();
            assert_eq!(total, packets.len());
        }
    }

    #[test]
    fn one_checksum_pass_many_packets() {
        // Every inner entry must carry a zero checksum field; only the
        // frame checksum is set.
        let packets: Vec<Packet> = (0..5).map(|i| data(i, b"tick")).collect();
        let frames = encode_bundle(&packets, DEFAULT_BUNDLE_MTU).unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_ne!(u16::from_be_bytes([f[6], f[7]]), 0, "frame checksum set");
        let mut pos = BUNDLE_HEADER_LEN;
        for _ in 0..5 {
            let len = u16::from_be_bytes([f[pos], f[pos + 1]]) as usize;
            let entry = &f[pos + 2..pos + 2 + len];
            assert_eq!(entry[6], 0, "inner checksum must stay zero");
            assert_eq!(entry[7], 0);
            pos += 2 + len;
        }
    }

    #[test]
    fn jumbo_packet_travels_as_one_entry_frame() {
        let big = retrans(1, 8000); // far over the default MTU
        let frames = encode_bundle(
            &[data(0, b"a"), big.clone(), data(2, b"b")],
            DEFAULT_BUNDLE_MTU,
        )
        .unwrap();
        assert_eq!(frames.len(), 3, "jumbo forces flushes around it");
        assert_eq!(decode_bundle(&frames[1]).unwrap(), vec![big]);
    }

    #[test]
    fn oversized_packet_is_rejected_not_framed() {
        // An entry that cannot fit MAX_PACKET_SIZE even alone must error
        // on the send side, and must not disturb the in-progress frame.
        let mut b = BundleBuilder::with_default_mtu();
        assert!(b.push(&data(1, b"ok")).unwrap().is_none());
        let too_big = retrans(2, MAX_PACKET_SIZE - HEADER_LEN);
        assert!(matches!(b.push(&too_big), Err(WireError::TooLarge(_))));
        assert_eq!(b.pending(), 1, "rejected push must not disturb the frame");
        let frame = Bytes::copy_from_slice(b.flush().unwrap());
        assert_eq!(decode_bundle(&frame).unwrap(), vec![data(1, b"ok")]);
    }

    #[test]
    fn reset_discards_the_pending_frame() {
        let mut b = BundleBuilder::with_default_mtu();
        b.push(&data(1, b"stale")).unwrap();
        b.reset();
        assert!(b.is_empty());
        assert!(b.flush().is_none());
        b.push(&data(2, b"fresh")).unwrap();
        let frame = Bytes::copy_from_slice(b.flush().unwrap());
        assert_eq!(decode_bundle(&frame).unwrap(), vec![data(2, b"fresh")]);
    }

    #[test]
    fn oversized_bundle_frame_is_rejected_on_decode() {
        // Forge a frame whose length field admits more than
        // MAX_PACKET_SIZE bytes: the u16 length can describe up to
        // 65,535, above the 65,507 UDP bound, and decode must refuse it.
        let total: usize = MAX_PACKET_SIZE + 20;
        let mut f = vec![0u8; total];
        f[0..2].copy_from_slice(&BUNDLE_MAGIC.to_be_bytes());
        f[2] = VERSION;
        f[3] = 1;
        f[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        let ck = codec::internet_checksum(&f);
        f[6..8].copy_from_slice(&ck.to_be_bytes());
        let frame = Bytes::from(f);
        assert_eq!(decode_bundle(&frame), Err(WireError::TooLarge(total)));
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let frames = encode_bundle(&[data(1, b"x"), data(2, b"y")], 1400).unwrap();
        let good = frames[0].clone();

        let mut bad = good.to_vec();
        bad[0] = 0;
        assert!(matches!(
            decode_bundle(&Bytes::from(bad)),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.to_vec();
        bad[2] = 9;
        assert!(matches!(
            decode_bundle(&Bytes::from(bad)),
            Err(WireError::BadVersion(9))
        ));

        // Zero count (checksum refreshed so the count check is what fires).
        let mut bad = good.to_vec();
        bad[3] = 0;
        bad[6] = 0;
        bad[7] = 0;
        let ck = codec::internet_checksum(&bad);
        bad[6..8].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            decode_bundle(&Bytes::from(bad)),
            Err(WireError::FieldOverflow)
        );

        // Trailing garbage breaks the length check.
        let mut bad = good.to_vec();
        bad.push(0);
        assert!(matches!(
            decode_bundle(&Bytes::from(bad)),
            Err(WireError::BadLength { .. })
        ));

        // Any single flipped byte is caught.
        for i in 0..good.len() {
            let mut bad = good.to_vec();
            bad[i] ^= 0xFF;
            assert!(
                decode_bundle(&Bytes::from(bad)).is_err(),
                "corruption at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn count_field_caps_entries_per_frame() {
        let tiny: Vec<Packet> = (0..300)
            .map(|i| Packet::ReplAck {
                group: GroupId(1),
                source: SourceId(1),
                seq: Seq(i),
            })
            .collect();
        let frames = encode_bundle(&tiny, MAX_PACKET_SIZE).unwrap();
        assert!(frames.len() >= 2, "count u8 must force a second frame");
        assert_eq!(decode_bundle(&frames[0]).unwrap().len(), MAX_BUNDLE_PACKETS);
        let total: usize = frames.iter().map(|f| decode_bundle(f).unwrap().len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn decoded_payloads_share_the_frame_allocation() {
        let frames = encode_bundle(&[retrans(1, 64), retrans(2, 64)], 1400).unwrap();
        let frame = &frames[0];
        let range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        for p in decode_bundle(frame).unwrap() {
            let Packet::Retrans { payload, .. } = p else {
                panic!("retrans expected");
            };
            assert!(
                range.contains(&(payload.as_ptr() as usize)),
                "payload must alias the frame buffer (zero-copy)"
            );
        }
    }

    #[test]
    fn validate_rejected_packets_do_not_corrupt_state() {
        let mut b = BundleBuilder::with_default_mtu();
        let bad = Packet::AckerSelect {
            group: GroupId(1),
            source: SourceId(1),
            epoch: EpochId(1),
            p_ack: 2.0,
        };
        assert_eq!(b.push(&bad), Err(WireError::BadProbability));
        let bad = Packet::Nack {
            group: GroupId(1),
            source: SourceId(1),
            requester: HostId(1),
            ranges: vec![SeqRange::single(Seq(1)); crate::codec::MAX_NACK_RANGES + 1],
        };
        assert_eq!(b.push(&bad), Err(WireError::FieldOverflow));
        assert!(b.is_empty());
        assert!(b.flush().is_none());
    }
}
