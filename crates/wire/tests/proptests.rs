//! Randomized property tests for the wire layer: arbitrary packets
//! roundtrip through the binary codec, arbitrary bytes never panic the
//! decoder, and sequence arithmetic obeys serial-number laws.
//!
//! The crates.io `proptest` harness is unavailable offline, so these
//! run as seeded randomized loops (deterministic per seed — a failure
//! reproduces by rerunning the test).

use bytes::Bytes;
use lbrm_wire::packet::{Packet, SeqRange};
use lbrm_wire::{decode, encode, EpochId, GroupId, HostId, Seq, SourceId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 512;

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn arb_payload(r: &mut SmallRng) -> Bytes {
    let len = r.random_range(0u64..512) as usize;
    (0..len)
        .map(|_| r.random::<u64>() as u8)
        .collect::<Vec<u8>>()
        .into()
}

fn arb_ranges(r: &mut SmallRng) -> Vec<SeqRange> {
    let n = r.random_range(0u64..16) as usize;
    (0..n)
        .map(|_| {
            let first = Seq(r.random::<u32>());
            let span = r.random_range(0u64..1000) as u32;
            SeqRange {
                first,
                last: first.add(span),
            }
        })
        .collect()
}

fn arb_packet(r: &mut SmallRng) -> Packet {
    let g = GroupId(r.random::<u32>());
    let s = SourceId(r.random::<u64>());
    let q = Seq(r.random::<u32>());
    let e = EpochId(r.random::<u32>());
    match r.random_range(0u64..20) {
        0 => Packet::Data {
            group: g,
            source: s,
            seq: q,
            epoch: e,
            payload: arb_payload(r),
        },
        1 => Packet::Heartbeat {
            group: g,
            source: s,
            seq: q,
            epoch: e,
            hb_index: r.random::<u32>(),
            payload: arb_payload(r),
        },
        2 => Packet::Nack {
            group: g,
            source: s,
            requester: HostId(r.random::<u64>()),
            ranges: arb_ranges(r),
        },
        3 => Packet::Retrans {
            group: g,
            source: s,
            seq: q,
            payload: arb_payload(r),
        },
        4 => Packet::LogAck {
            group: g,
            source: s,
            primary_seq: q,
            replica_seq: Seq(r.random::<u32>()),
        },
        5 => Packet::AckerSelect {
            group: g,
            source: s,
            epoch: e,
            p_ack: r.random::<f64>(),
        },
        6 => Packet::AckerVolunteer {
            group: g,
            source: s,
            epoch: e,
            logger: HostId(r.random::<u64>()),
        },
        7 => Packet::PacketAck {
            group: g,
            source: s,
            epoch: e,
            seq: q,
            logger: HostId(r.random::<u64>()),
        },
        8 => Packet::DiscoveryQuery {
            group: g,
            nonce: r.random::<u64>(),
            requester: HostId(r.random::<u64>()),
        },
        9 => Packet::DiscoveryReply {
            group: g,
            nonce: r.random::<u64>(),
            logger: HostId(r.random::<u64>()),
            level: r.random::<u64>() as u8,
        },
        10 => Packet::ReplUpdate {
            group: g,
            source: s,
            seq: q,
            payload: arb_payload(r),
        },
        11 => Packet::ReplAck {
            group: g,
            source: s,
            seq: q,
        },
        12 => Packet::SrmSession {
            group: g,
            member: HostId(r.random::<u64>()),
            last_seq: q,
        },
        13 => Packet::SrmNack {
            group: g,
            source: s,
            requester: HostId(r.random::<u64>()),
            ranges: arb_ranges(r),
        },
        14 => Packet::SrmRepair {
            group: g,
            source: s,
            seq: q,
            responder: HostId(r.random::<u64>()),
            payload: arb_payload(r),
        },
        15 => Packet::LocatePrimary {
            group: g,
            source: s,
            requester: HostId(r.random::<u64>()),
        },
        16 => Packet::PrimaryIs {
            group: g,
            source: s,
            primary: HostId(r.random::<u64>()),
        },
        17 => Packet::ElectPrepare {
            group: g,
            source: s,
            term: r.random::<u32>(),
            candidate: HostId(r.random::<u64>()),
        },
        18 => Packet::ElectPromise {
            group: g,
            source: s,
            term: r.random::<u32>(),
            voter: HostId(r.random::<u64>()),
            log_end: q,
        },
        _ => Packet::TermAnnounce {
            group: g,
            source: s,
            term: r.random::<u32>(),
            leader: HostId(r.random::<u64>()),
        },
    }
}

/// One deterministic instance of every variant at a chosen payload/range
/// extreme, for the `encoded_len` edge cases the random generator rarely
/// hits (empty and maximal sizes, wraparound sequence numbers).
fn extreme_packets() -> Vec<Packet> {
    let g = GroupId(u32::MAX);
    let s = SourceId(u64::MAX);
    // Wraparound: a range starting just below the top of seq space.
    let wrap = SeqRange {
        first: Seq(u32::MAX - 1),
        last: Seq(u32::MAX - 1).add(5),
    };
    let max_ranges: Vec<SeqRange> = (0..lbrm_wire::codec::MAX_NACK_RANGES)
        .map(|i| SeqRange::single(Seq(i as u32)))
        .collect();
    let big = Bytes::from(vec![0xA5u8; 16 * 1024]);
    let empty = Bytes::new();
    vec![
        Packet::Data {
            group: g,
            source: s,
            seq: Seq(u32::MAX),
            epoch: EpochId(0),
            payload: empty.clone(),
        },
        Packet::Data {
            group: g,
            source: s,
            seq: Seq(0),
            epoch: EpochId(u32::MAX),
            payload: big.clone(),
        },
        Packet::Heartbeat {
            group: g,
            source: s,
            seq: Seq(u32::MAX),
            epoch: EpochId(1),
            hb_index: u32::MAX,
            payload: empty.clone(),
        },
        Packet::Nack {
            group: g,
            source: s,
            requester: HostId(0),
            ranges: vec![],
        },
        Packet::Nack {
            group: g,
            source: s,
            requester: HostId(u64::MAX),
            ranges: max_ranges,
        },
        Packet::Nack {
            group: g,
            source: s,
            requester: HostId(7),
            ranges: vec![wrap],
        },
        Packet::Retrans {
            group: g,
            source: s,
            seq: Seq(u32::MAX),
            payload: big.clone(),
        },
        Packet::LogAck {
            group: g,
            source: s,
            primary_seq: Seq(u32::MAX),
            replica_seq: Seq(0),
        },
        Packet::AckerSelect {
            group: g,
            source: s,
            epoch: EpochId(u32::MAX),
            p_ack: 1.0,
        },
        Packet::AckerVolunteer {
            group: g,
            source: s,
            epoch: EpochId(0),
            logger: HostId(u64::MAX),
        },
        Packet::PacketAck {
            group: g,
            source: s,
            epoch: EpochId(0),
            seq: Seq(u32::MAX),
            logger: HostId(0),
        },
        Packet::DiscoveryQuery {
            group: g,
            nonce: u64::MAX,
            requester: HostId(0),
        },
        Packet::DiscoveryReply {
            group: g,
            nonce: 0,
            logger: HostId(u64::MAX),
            level: u8::MAX,
        },
        Packet::LocatePrimary {
            group: g,
            source: s,
            requester: HostId(u64::MAX),
        },
        Packet::PrimaryIs {
            group: g,
            source: s,
            primary: HostId(u64::MAX),
        },
        Packet::ReplUpdate {
            group: g,
            source: s,
            seq: Seq(0),
            payload: big.clone(),
        },
        Packet::ReplAck {
            group: g,
            source: s,
            seq: Seq(u32::MAX),
        },
        Packet::SrmSession {
            group: g,
            member: HostId(u64::MAX),
            last_seq: Seq(u32::MAX),
        },
        Packet::SrmNack {
            group: g,
            source: s,
            requester: HostId(1),
            ranges: vec![wrap],
        },
        Packet::SrmRepair {
            group: g,
            source: s,
            seq: Seq(u32::MAX),
            responder: HostId(u64::MAX),
            payload: empty,
        },
        Packet::ElectPrepare {
            group: g,
            source: s,
            term: u32::MAX,
            candidate: HostId(u64::MAX),
        },
        Packet::ElectPromise {
            group: g,
            source: s,
            term: u32::MAX,
            voter: HostId(u64::MAX),
            log_end: Seq(u32::MAX),
        },
        Packet::TermAnnounce {
            group: g,
            source: s,
            term: 0,
            leader: HostId(0),
        },
    ]
}

#[test]
fn encoded_len_matches_encode() {
    // The invariant the simulator's zero-serialization send path relies
    // on: `encoded_len()` is exactly `encode(p).len()` for every packet.
    let mut r = rng(0x1E4);
    for i in 0..CASES {
        let p = arb_packet(&mut r);
        let enc = encode(&p).expect("encode");
        assert_eq!(p.encoded_len(), enc.len(), "case {i}: {p:?}");
    }
}

#[test]
fn encoded_len_matches_encode_at_extremes() {
    for p in extreme_packets() {
        let enc = encode(&p).expect("encode");
        assert_eq!(p.encoded_len(), enc.len(), "variant {}", p.kind());
    }
}

#[test]
fn extreme_packets_cover_every_variant() {
    let mut kinds: Vec<&str> = extreme_packets().iter().map(|p| p.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 20, "one extreme per wire variant: {kinds:?}");
}

/// The payload field of a packet, for the zero-copy aliasing check.
fn payload_of(p: &Packet) -> Option<&Bytes> {
    match p {
        Packet::Data { payload, .. }
        | Packet::Heartbeat { payload, .. }
        | Packet::Retrans { payload, .. }
        | Packet::ReplUpdate { payload, .. }
        | Packet::SrmRepair { payload, .. } => Some(payload),
        _ => None,
    }
}

#[test]
fn decode_bytes_matches_decode_over_all_variants() {
    // `decode` is the compatibility wrapper over `decode_bytes`; this
    // pins the equivalence over random packets of every variant, plus
    // the zero-copy contract: a payload decoded by `decode_bytes` must
    // alias the source buffer's allocation, not a copy of it.
    let mut r = rng(0xB17E5);
    let mut aliased = 0usize;
    for i in 0..CASES {
        let p = arb_packet(&mut r);
        let enc = encode(&p).expect("encode");
        let legacy = decode(&enc).expect("decode");
        let zero = lbrm_wire::decode_bytes(enc.clone()).expect("decode_bytes");
        assert_eq!(legacy, zero, "case {i}: decode and decode_bytes disagree");
        assert_eq!(zero, p, "case {i}");
        if let Some(payload) = payload_of(&zero) {
            if !payload.is_empty() {
                let src = enc.as_ptr() as usize..enc.as_ptr() as usize + enc.len();
                assert!(
                    src.contains(&(payload.as_ptr() as usize)),
                    "case {i}: payload was copied out of the source buffer"
                );
                aliased += 1;
            }
        }
    }
    assert!(aliased > 50, "generator must exercise real payloads");
}

#[test]
fn extreme_packets_decode_bytes_equivalence() {
    for p in extreme_packets() {
        let enc = encode(&p).expect("encode");
        assert_eq!(
            decode(&enc).expect("decode"),
            lbrm_wire::decode_bytes(enc.clone()).expect("decode_bytes"),
            "variant {}",
            p.kind()
        );
    }
}

#[test]
fn bundle_roundtrip_over_all_variants() {
    // Random mixes of every packet variant through the bundler: frames
    // respect the MTU (except single-packet jumbos) and unbundle back
    // to the exact input sequence.
    let mut r = rng(0xB0D7E);
    for case in 0..64 {
        let n = r.random_range(1u64..24) as usize;
        let packets: Vec<Packet> = (0..n).map(|_| arb_packet(&mut r)).collect();
        let frames = lbrm_wire::bundle::encode_bundle(&packets, 1400).expect("bundle");
        let got: Vec<Packet> = frames
            .iter()
            .flat_map(|f| lbrm_wire::decode_bundle(f).expect("decode_bundle"))
            .collect();
        assert_eq!(got, packets, "case {case}");
        for f in &frames {
            let inner = lbrm_wire::decode_bundle(f).unwrap();
            assert!(
                f.len() <= 1400 || inner.len() == 1,
                "case {case}: oversized multi-packet frame"
            );
        }
    }
}

#[test]
fn codec_roundtrip() {
    let mut r = rng(0xC0DEC);
    for i in 0..CASES {
        let p = arb_packet(&mut r);
        let enc = encode(&p).expect("encode");
        let dec = decode(&enc).expect("decode");
        assert_eq!(p, dec, "case {i}");
    }
}

#[test]
fn decode_never_panics() {
    let mut r = rng(0xDEC0DE);
    for _ in 0..CASES {
        let len = r.random_range(0u64..256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| r.random::<u64>() as u8).collect();
        let _ = decode(&bytes);
    }
}

#[test]
fn decode_rejects_random_bytes_with_valid_header_shape() {
    // Forge a header around random bytes; the checksum makes a false
    // accept astronomically unlikely but decode must never panic and
    // never produce a packet longer than the buffer claims.
    let mut r = rng(0xF0463);
    for _ in 0..CASES {
        let body_len = r.random_range(0u64..64) as usize;
        let body: Vec<u8> = (0..body_len).map(|_| r.random::<u64>() as u8).collect();
        let typ = r.random_range(1u64..=20) as u8;
        let mut pkt = vec![0x4C, 0x42, 1, typ];
        let len = (body.len() + 8) as u16;
        pkt.extend_from_slice(&len.to_be_bytes());
        pkt.extend_from_slice(&[0, 0]);
        pkt.extend_from_slice(&body);
        let _ = decode(&pkt);
    }
}

/// FNV-1a-64 over every `encode()` byte of a fixed packet corpus. The
/// round-trip and `encoded_len` tests pass on any self-consistent format
/// change; this one pins the bytes themselves. Recorded at `705fe71`,
/// before the codec became one layout table.
#[test]
fn golden_wire_bytes() {
    let mut r = rng(0x601D);
    let corpus = (0..4096)
        .map(|_| arb_packet(&mut r))
        .chain(extreme_packets());
    let (mut total, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for p in corpus {
        let enc = encode(&p).expect("encode");
        total += enc.len();
        for &b in enc.iter() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!((total, hash), (475_512, 0xe977_0205_63f4_13ab));
}

/// RFC 1071 over `data` with its checksum field (bytes 6..8) taken as
/// zero, written into that field: a mutant with a valid checksum gets
/// past the frame checks and into the body decoder.
fn fix_checksum(data: &mut [u8]) {
    data[6] = 0;
    data[7] = 0;
    let mut sum: u32 = data
        .chunks(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], *c.get(1).unwrap_or(&0)])))
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    data[6..8].copy_from_slice(&(!(sum as u16)).to_be_bytes());
}

fn patch_len(data: &mut [u8]) {
    let len = data.len() as u16;
    data[4..6].copy_from_slice(&len.to_be_bytes());
}

/// One structure-aware mutation of a valid encoding: flip a body bit,
/// truncate or insert a byte (length field patched), or rewrite the type.
fn mutate(r: &mut SmallRng, enc: &[u8]) -> Vec<u8> {
    let mut m = enc.to_vec();
    let body = r.random_range(8..m.len());
    match r.random_range(0u64..4) {
        0 => m[body] ^= 1 << r.random_range(0u64..8),
        1 => {
            m.truncate(body);
            patch_len(&mut m);
        }
        2 => {
            m.insert(r.random_range(8..=m.len()), r.random::<u64>() as u8);
            patch_len(&mut m);
        }
        _ => m[3] = r.random::<u64>() as u8,
    }
    fix_checksum(&mut m);
    m
}

#[test]
fn checksum_valid_mutants_never_panic_and_accepted_is_canonical() {
    let mut r = rng(0x0405_711E);
    let mut accepted = 0usize;
    for i in 0..20_000 {
        let p = arb_packet(&mut r);
        let enc = encode(&p).expect("encode");
        let m = mutate(&mut r, &enc);
        if let Ok(q) = lbrm_wire::decode_bytes(Bytes::from(m.clone())) {
            accepted += 1;
            let re = encode(&q).expect("an accepted packet re-encodes");
            assert_eq!(&re[..], &m[..], "case {i}: accepted but not canonical");
        }
    }
    // Recorded at `705fe71`: a stricter or looser decoder moves it.
    assert_eq!(accepted, 4_874, "mutants must reach the body decoder");
}

#[test]
fn bundle_bit_flips_never_panic_and_accepted_is_canonical() {
    use lbrm_wire::bundle::encode_bundle;
    let mut r = rng(0xB1F11);
    for case in 0..2_000 {
        let n = r.random_range(1u64..8) as usize;
        let packets: Vec<Packet> = (0..n).map(|_| arb_packet(&mut r)).collect();
        let frames = encode_bundle(&packets, 1400).expect("bundle");
        let frame = &frames[r.random_range(0..frames.len())];
        let mut m = frame.to_vec();
        let at = r.random_range(lbrm_wire::BUNDLE_HEADER_LEN..m.len());
        m[at] ^= 1 << r.random_range(0u64..8);
        fix_checksum(&mut m);
        if let Ok(got) = lbrm_wire::decode_bundle(&Bytes::from(m.clone())) {
            let re = encode_bundle(&got, 1400).expect("re-bundle");
            assert_eq!(re, vec![Bytes::from(m)], "case {case}: not canonical");
        }
    }
}

#[test]
fn tag_sweep_matches_packet_kinds() {
    use lbrm_wire::codec::PACKET_KINDS;
    use lbrm_wire::WireError;
    let mut kinds = PACKET_KINDS.to_vec();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!((PACKET_KINDS.len(), kinds.len()), (20, 20));
    for p in extreme_packets() {
        let enc = encode(&p).expect("encode");
        assert_eq!(p.kind(), PACKET_KINDS[usize::from(enc[3]) - 1]);
    }
    let enc = encode(&extreme_packets()[0]).expect("encode");
    for t in 0..=255u8 {
        let mut m = enc.to_vec();
        m[3] = t;
        fix_checksum(&mut m);
        let unknown = lbrm_wire::decode(&m) == Err(WireError::UnknownType(t));
        assert_eq!(unknown, t == 0 || t > 20, "type byte {t}");
    }
}

#[test]
fn seq_total_order_locally() {
    let mut r = rng(0x5E9);
    for _ in 0..CASES {
        let x = Seq(r.random::<u32>());
        let d = r.random_range(1u64..(1 << 30)) as u32;
        let y = x.add(d);
        assert!(x.before(y));
        assert!(!y.before(x));
        assert!(y.after(x));
        assert_eq!(y.distance_from(x), d);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}

#[test]
fn seq_iter_matches_distance() {
    let mut r = rng(0x17E8);
    for _ in 0..CASES {
        let x = Seq(r.random::<u32>());
        let d = r.random_range(0u64..200) as u32;
        let y = x.add(d);
        let v: Vec<_> = x.iter_to(y).collect();
        assert_eq!(v.len() as u32, d + 1);
        assert_eq!(v[0], x);
        assert_eq!(*v.last().unwrap(), y);
    }
}

#[test]
fn text_roundtrip_updates() {
    use lbrm_wire::text::{parse_message, TextMessage};
    let mut r = rng(0x7E87);
    for _ in 0..CASES {
        let m = TextMessage::Update {
            seq: Seq(r.random::<u32>()),
            url: "http://example.org/doc.html".into(),
            retrans: r.random::<bool>(),
        };
        assert_eq!(parse_message(&m.to_string()).unwrap(), m);
    }
}

#[test]
fn text_roundtrip_heartbeats() {
    use lbrm_wire::text::{parse_message, TextMessage};
    let mut r = rng(0x48B7);
    for _ in 0..CASES {
        let m = TextMessage::Heartbeat {
            seq: Seq(r.random::<u32>()),
            hb_index: r.random_range(1u64..=u64::from(u32::MAX)) as u32,
        };
        assert_eq!(parse_message(&m.to_string()).unwrap(), m);
    }
}

/// Seeded mutants of valid text-protocol lines and multicast tags: the
/// parsers never panic, and whatever they accept re-renders to a line
/// that parses back to the same value.
#[test]
fn text_mutants_never_panic_and_accepted_round_trips() {
    use lbrm_wire::text::{multicast_tag, parse_message, parse_multicast_tag, TextMessage};
    // `mutate` edits the body from byte 8 on, plus header fields below
    // it: an 8-byte pad in front keeps those off the text.
    const PAD: usize = 8;
    let mut r = rng(0x7E87_F422);
    let mut accepted = [0usize; 2];
    for _ in 0..20_000 {
        let message = if r.random::<bool>() {
            TextMessage::Update {
                seq: Seq(r.random::<u32>()),
                url: format!("http://example.org/{}.html", r.random::<u32>()),
                retrans: r.random::<bool>(),
            }
        } else {
            TextMessage::Heartbeat {
                seq: Seq(r.random::<u32>()),
                hb_index: r.random_range(1u64..=u64::from(u32::MAX)) as u32,
            }
        };
        let group = std::net::Ipv4Addr::from(0xE000_0000 | (r.random::<u32>() >> 4));
        let tag = format!("{}\n<html>", multicast_tag(group));
        for (kind, text) in [message.to_string(), tag].into_iter().enumerate() {
            let mut padded = vec![0u8; PAD];
            padded.extend_from_slice(text.as_bytes());
            let mutant = mutate(&mut r, &padded);
            let input = String::from_utf8_lossy(&mutant[PAD..]);
            if kind == 0 {
                if let Ok(m) = parse_message(&input) {
                    accepted[0] += 1;
                    assert_eq!(parse_message(&m.to_string()), Ok(m), "{input:?}");
                }
            } else if let Ok(addr) = parse_multicast_tag(&input) {
                accepted[1] += 1;
                assert_eq!(
                    parse_multicast_tag(&multicast_tag(addr)),
                    Ok(addr),
                    "{input:?}"
                );
            }
        }
    }
    // A stricter or looser parser moves these counts.
    assert_eq!(accepted, [9_919, 8_648], "mutants must reach acceptance");
}
