//! Real-UDP integration test over the loopback interface.
//!
//! Runs a sender, a primary logger, and a receiver as three endpoints on
//! `127.0.0.1` with genuine multicast sockets. Environments that forbid
//! multicast (some containers) make the setup fail; the test then skips
//! rather than fails, printing why.

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_net::{Endpoint, EndpointEvent, GroupMap, Transport, UdpTransport};
use lbrm_wire::{GroupId, Seq, SourceId};

const GROUP: GroupId = GroupId(7);
const SRC: SourceId = SourceId(1);

fn try_bind(port: u16) -> Option<UdpTransport> {
    let map = GroupMap::new(port);
    match UdpTransport::bind(Ipv4Addr::LOCALHOST, map) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("skipping UDP loopback test: bind failed: {e}");
            None
        }
    }
}

#[test]
fn udp_multicast_end_to_end() {
    let port = 49_431;
    let Some(tx_t) = try_bind(port) else { return };
    let Some(mut log_t) = try_bind(port) else {
        return;
    };
    let Some(mut rx_t) = try_bind(port) else {
        return;
    };

    // Probe that multicast join actually works here.
    if let Err(e) = log_t.join(GROUP) {
        eprintln!("skipping UDP loopback test: multicast join failed: {e}");
        return;
    }
    if let Err(e) = rx_t.join(GROUP) {
        eprintln!("skipping UDP loopback test: multicast join failed: {e}");
        return;
    }

    let src_host = tx_t.local_host();
    let log_host = log_t.local_host();

    let (ep, sender) = Endpoint::new(
        Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
        tx_t,
        vec![],
    );
    ep.spawn();

    let (ep, _logger) = Endpoint::new(
        Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
        log_t,
        vec![],
    );
    ep.spawn();

    let rx_host = rx_t.local_host();
    let (ep, mut receiver) = Endpoint::new(
        Receiver::new(ReceiverConfig::new(
            GROUP,
            SRC,
            rx_host,
            src_host,
            vec![log_host],
        )),
        rx_t,
        vec![],
    );
    ep.spawn();

    // Give the reader threads a moment, then publish.
    std::thread::sleep(Duration::from_millis(100));
    sender
        .call(|s: &mut Sender, now, out| s.send(now, Bytes::from_static(b"over real udp"), out))
        .unwrap();

    // The receiver should deliver — via the original multicast or, if
    // the first datagram raced the subscription, via logger recovery.
    let mut delivered = None;
    for _ in 0..64 {
        match receiver.event_timeout(Duration::from_secs(5)) {
            Some(EndpointEvent::Delivery(d)) => {
                delivered = Some(d);
                break;
            }
            Some(EndpointEvent::Notice(_)) => continue,
            None => break,
        }
    }
    let d = match delivered {
        Some(d) => d,
        None => {
            eprintln!(
                "skipping UDP loopback assertion: no delivery (multicast routing unavailable)"
            );
            return;
        }
    };
    assert_eq!(d.seq, Seq(1));
    assert_eq!(d.payload.as_ref(), b"over real udp");
}

/// Undecodable datagrams hitting a live transport land in its receive
/// counters instead of vanishing, and the endpoint keeps delivering
/// valid traffic afterwards.
#[test]
fn garbage_datagram_is_counted_not_delivered() {
    use std::net::UdpSocket;

    let Some(mut t) = try_bind(49_433) else {
        return;
    };
    let raw = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dst = t.local_addr();
    raw.send_to(&[0xFF; 64], dst).unwrap();

    // The reader thread drops the garbage without delivering anything.
    assert!(t
        .recv_timeout(Duration::from_millis(300))
        .unwrap()
        .is_none());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while t.recv_counters().decode_errors() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(t.recv_counters().decode_errors(), 1);
    assert_eq!(t.recv_counters().truncated(), 0);

    // Valid traffic still flows through the same reader loop.
    let Some(mut peer) = try_bind(49_433) else {
        return;
    };
    let me = t.local_host();
    peer.send_unicast(
        me,
        &lbrm_wire::Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(0),
            epoch: lbrm_wire::EpochId(0),
            hb_index: 1,
            payload: Bytes::new(),
        },
    )
    .unwrap();
    let got = t.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(got.is_some(), "valid packet after garbage must deliver");
}

/// The bundled path is what ships: a `Logger` endpoint on a
/// default-constructed transport answers one 16-sequence `Nack` with
/// bundle datagrams, not one datagram per `Retrans`.
#[test]
fn logger_answers_a_span_nack_with_bundle_datagrams() {
    use lbrm_net::host_of;
    use lbrm_wire::{decode_bundle, decode_bytes, encode, is_bundle, EpochId, Packet, SeqRange};
    use std::net::{SocketAddr, UdpSocket};

    let Some(log_t) = try_bind(49_435) else {
        return;
    };
    let logger_addr = log_t.local_addr();
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let SocketAddr::V4(client_addr) = client.local_addr().unwrap() else {
        panic!("ipv4 bind");
    };
    let me = host_of(client_addr);

    // The client plays source and requester; no multicast involved.
    let (ep, _logger) = Endpoint::new(
        Logger::new(LoggerConfig::primary(GROUP, SRC, log_t.local_host(), me)),
        log_t,
        vec![],
    );
    ep.spawn();

    let payload = |seq: u32| Bytes::from(format!("logged-{seq:02}"));
    let mut buf = vec![0u8; 65_536];
    // One datagram: whether it was a bundle frame, and its packets.
    let mut recv = || -> (bool, Vec<Packet>) {
        let (n, _) = client.recv_from(&mut buf).expect("the logger must answer");
        let datagram = Bytes::copy_from_slice(&buf[..n]);
        if is_bundle(&datagram) {
            (true, decode_bundle(&datagram).expect("valid bundle"))
        } else {
            (false, vec![decode_bytes(datagram).expect("valid packet")])
        }
    };

    for seq in 1..=16 {
        let data = Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: payload(seq),
        };
        client
            .send_to(&encode(&data).unwrap(), logger_addr)
            .unwrap();
    }
    // Wait until the log holds all 16 (cumulative LogAck).
    loop {
        let (_, packets) = recv();
        if packets
            .iter()
            .any(|p| matches!(p, Packet::LogAck { primary_seq, .. } if *primary_seq == Seq(16)))
        {
            break;
        }
    }

    let nack = Packet::Nack {
        group: GROUP,
        source: SRC,
        requester: me,
        ranges: vec![SeqRange {
            first: Seq(1),
            last: Seq(16),
        }],
    };
    client
        .send_to(&encode(&nack).unwrap(), logger_addr)
        .unwrap();

    let mut datagrams = 0;
    let mut repairs: Vec<(Seq, Bytes)> = Vec::new();
    while repairs.len() < 16 {
        let (bundled, packets) = recv();
        let before = repairs.len();
        for p in packets {
            if let Packet::Retrans { seq, payload, .. } = p {
                repairs.push((seq, payload));
            }
        }
        if repairs.len() > before {
            assert!(bundled, "repairs must travel in bundle frames");
            datagrams += 1;
        }
    }
    assert!(
        datagrams < repairs.len(),
        "{datagrams} datagrams for {} repairs",
        repairs.len()
    );
    let want: Vec<(Seq, Bytes)> = (1..=16).map(|s| (Seq(s), payload(s))).collect();
    assert_eq!(repairs, want, "requested seqs, ascending, logged payloads");
}
