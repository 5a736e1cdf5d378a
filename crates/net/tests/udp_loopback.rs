//! Real-UDP integration test over the loopback interface.
//!
//! Runs a sender, a primary logger, and a receiver as three endpoints on
//! `127.0.0.1` with genuine multicast sockets. Environments that forbid
//! multicast (some containers) make the setup fail; the test then skips
//! rather than fails, printing why.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use bytes::Bytes;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::trace::MetricsRegistry;
use lbrm_net::{Endpoint, EndpointEvent, GroupMap, Transport, UdpTransport};
use lbrm_wire::{EpochId, GroupId, Packet, Seq, SourceId, TtlScope};

const GROUP: GroupId = GroupId(7);
const SRC: SourceId = SourceId(1);

fn heartbeat(group: GroupId, hb_index: u32) -> Packet {
    Packet::Heartbeat {
        group,
        source: SRC,
        seq: Seq(0),
        epoch: EpochId(0),
        hb_index,
        payload: Bytes::new(),
    }
}

/// How long a test waits for a datagram that must *not* arrive.
const QUIET: Duration = Duration::from_millis(200);

/// A sender and a listener that joined `groups`, all on `port`; `None`
/// (after saying why) where loopback multicast does not work.
fn multicast_pair(port: u16, groups: &[GroupId]) -> Option<(UdpTransport, UdpTransport)> {
    let (mut tx, mut rx) = (try_bind(port)?, try_bind(port)?);
    for g in groups {
        if let Err(e) = rx.join(*g) {
            eprintln!("skipping UDP loopback test: multicast join failed: {e}");
            return None;
        }
    }
    let probe = heartbeat(groups[0], 0);
    tx.send_multicast(TtlScope::Site, &probe).ok()?;
    if rx.recv_timeout(Duration::from_secs(1)).ok()? != Some((tx.local_host(), probe)) {
        eprintln!("skipping UDP loopback test: multicast routing unavailable");
        return None;
    }
    Some((tx, rx))
}

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

    // Give the endpoint threads a moment to start, then publish.
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

/// `row` of the transport at `addr`, read through a registry its rows
/// are attached to.
fn transport_row(registry: &MetricsRegistry, addr: SocketAddrV4, row: &str) -> u64 {
    registry.gauge(&["net", &addr.to_string(), row].join("."))
}

/// Undecodable datagrams hitting a live transport land in its receive
/// rows instead of vanishing, and the endpoint keeps delivering
/// valid traffic afterwards.
#[test]
fn garbage_datagram_is_counted_not_delivered() {
    use std::net::UdpSocket;

    let Some(mut t) = try_bind(49_433) else {
        return;
    };
    let registry = MetricsRegistry::default();
    t.attach_gauges(&registry);
    let raw = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let dst = t.local_addr();
    raw.send_to(&[0xFF; 64], dst).unwrap();

    // The receive drops the garbage, counts it, and keeps waiting.
    assert!(t
        .recv_timeout(Duration::from_millis(300))
        .unwrap()
        .is_none());
    assert_eq!(transport_row(&registry, dst, "recv.decode_errors"), 1);
    assert_eq!(transport_row(&registry, dst, "recv.truncated"), 0);

    // Valid traffic still flows through the same socket.
    let Some(mut peer) = try_bind(49_433) else {
        return;
    };
    let me = t.local_host();
    peer.send_unicast(me, &heartbeat(GROUP, 1)).unwrap();
    let got = t.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(got.is_some(), "valid packet after garbage must deliver");
}

/// The bundled path is what ships: a `Logger` endpoint on a
/// default-constructed transport answers one 16-sequence `Nack` with
/// bundle datagrams, not one datagram per `Retrans`.
#[test]
fn logger_answers_a_span_nack_with_bundle_datagrams() {
    use lbrm_net::host_of;
    use lbrm_wire::{decode_bundle, decode_bytes, encode, is_bundle, SeqRange};
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

/// A backlog of NACKs is answered in one pass: with the endpoint loop
/// stalled while 32 single-seq NACKs queue up, the logger takes them all
/// before sending, so the 32 `Retrans` to the one requester share bundle
/// frames instead of costing a datagram each.
#[test]
fn a_nack_backlog_is_answered_in_shared_bundles() {
    use lbrm_net::host_of;
    use lbrm_wire::{decode_bundle, decode_bytes, encode, is_bundle, SeqRange};
    use std::net::{SocketAddr, UdpSocket};

    const WINDOW: u32 = 32;
    let Some(log_t) = try_bind(49_437) else {
        return;
    };
    let logger_addr = log_t.local_addr();
    let registry = MetricsRegistry::default();
    log_t.attach_gauges(&registry);
    let sent = |row| transport_row(&registry, logger_addr, row);
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let SocketAddr::V4(client_addr) = client.local_addr().unwrap() else {
        panic!("ipv4 bind");
    };
    let me = host_of(client_addr);
    let (ep, logger) = Endpoint::new(
        Logger::new(LoggerConfig::primary(GROUP, SRC, log_t.local_host(), me)),
        log_t,
        vec![],
    );
    ep.spawn();

    let mut buf = vec![0u8; 65_536];
    let mut recv = || -> Vec<Packet> {
        let (n, _) = client.recv_from(&mut buf).expect("the logger must answer");
        let datagram = Bytes::copy_from_slice(&buf[..n]);
        if is_bundle(&datagram) {
            decode_bundle(&datagram).expect("valid bundle")
        } else {
            vec![decode_bytes(datagram).expect("valid packet")]
        }
    };
    for seq in 1..=WINDOW {
        let data = Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from(vec![seq as u8; 100]),
        };
        client
            .send_to(&encode(&data).unwrap(), logger_addr)
            .unwrap();
    }
    // Wait until the log holds the window (cumulative LogAck).
    let logged =
        |p: &Packet| matches!(p, Packet::LogAck { primary_seq, .. } if *primary_seq == Seq(WINDOW));
    while !recv().iter().any(logged) {}

    // Stall the loop, and queue the NACKs while it is stalled.
    let (stalled_tx, stalled_rx) = std::sync::mpsc::channel();
    logger
        .call(move |_: &mut Logger, _, _| {
            let _ = stalled_tx.send(());
            std::thread::sleep(Duration::from_millis(20));
        })
        .unwrap();
    stalled_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the call must run");
    let (datagrams_before, packets_before) = (sent("send.datagrams"), sent("send.packets"));
    for seq in 1..=WINDOW {
        let nack = Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: me,
            ranges: vec![SeqRange::single(Seq(seq))],
        };
        client
            .send_to(&encode(&nack).unwrap(), logger_addr)
            .unwrap();
    }

    let (mut datagrams, mut repairs) = (0, Vec::new());
    while repairs.len() < WINDOW as usize {
        let packets = recv();
        let before = repairs.len();
        repairs.extend(packets.into_iter().filter_map(|p| match p {
            Packet::Retrans { seq, .. } => Some(seq),
            _ => None,
        }));
        datagrams += usize::from(repairs.len() > before);
    }
    let want: Vec<Seq> = (1..=WINDOW).map(Seq).collect();
    assert_eq!(repairs, want, "every requested seq, in request order");
    assert!(datagrams <= 8, "{datagrams} datagrams for {WINDOW} repairs");
    let (datagrams_sent, packets_sent) = (
        sent("send.datagrams") - datagrams_before,
        sent("send.packets") - packets_before,
    );
    assert!(
        datagrams_sent < packets_sent,
        "the serve sent {datagrams_sent} datagrams for {packets_sent} packets"
    );
}

/// The zero-timeout contract: `recv_timeout(Duration::ZERO)` returns
/// what is already readable without sleeping, and leaves a pending wake
/// for the next wait.
#[test]
fn a_zero_timeout_takes_what_is_readable_and_keeps_the_wake() {
    let Some(mut t) = try_bind(49_449) else {
        return;
    };
    let Some(mut peer) = try_bind(49_449) else {
        return;
    };
    let started = std::time::Instant::now();
    assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), None);
    assert!(started.elapsed() < Duration::from_millis(1), "never sleeps");

    let packet = heartbeat(GROUP, 1);
    peer.send_unicast(t.local_host(), &packet).unwrap();
    let arrived = std::time::Instant::now() + Duration::from_secs(5);
    let got = loop {
        if let Some(got) = t.recv_timeout(Duration::ZERO).unwrap() {
            break got;
        }
        assert!(std::time::Instant::now() < arrived, "never returned");
    };
    assert_eq!(got, (peer.local_host(), packet.clone()));

    // An empty zero-timeout sweep does not hide a datagram that arrives
    // before the next wait.
    assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), None);
    peer.send_unicast(t.local_host(), &packet).unwrap();
    assert_eq!(
        t.recv_timeout(Duration::from_secs(5)).unwrap(),
        Some((peer.local_host(), packet))
    );

    t.waker().unwrap().wake();
    assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), None);
    within_5s(move || assert_eq!(t.recv_timeout(Duration::MAX).unwrap(), None));
}

/// Regression: an endpoint in two groups that share a port used to get
/// every datagram on that port once per join. One socket per port means
/// once; leaving one group keeps the other flowing and silences the one
/// left.
#[test]
fn two_groups_on_one_port_deliver_once() {
    const OTHER: GroupId = GroupId(8);
    let Some((mut a, mut b)) = multicast_pair(49_439, &[GROUP, OTHER]) else {
        return;
    };
    let from = a.local_host();
    let wait = Duration::from_secs(5);

    a.send_multicast(TtlScope::Site, &heartbeat(GROUP, 1))
        .unwrap();
    assert_eq!(
        b.recv_timeout(wait).unwrap(),
        Some((from, heartbeat(GROUP, 1)))
    );
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None, "delivered twice");

    b.leave(OTHER).unwrap();
    a.send_multicast(TtlScope::Site, &heartbeat(OTHER, 2))
        .unwrap();
    a.send_multicast(TtlScope::Site, &heartbeat(GROUP, 3))
        .unwrap();
    assert_eq!(
        b.recv_timeout(wait).unwrap(),
        Some((from, heartbeat(GROUP, 3))),
        "the group still joined flows, the group left does not"
    );
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
}

/// Regression: every listener on a port used to decode every group's
/// traffic on it, joined or not — first through the shared fanout, and
/// Linux does the same for `INADDR_ANY` sockets until `IP_MULTICAST_ALL`
/// is cleared. An endpoint hears only the groups it joined.
#[test]
fn a_group_is_not_heard_by_another_groups_listener() {
    const ELSEWHERE: GroupId = GroupId(9);
    let port = 49_441;
    let Some((mut a, mut b)) = multicast_pair(port, &[GROUP]) else {
        return;
    };
    let Some(mut c) = try_bind(port) else { return };
    c.join(ELSEWHERE).unwrap();

    a.send_multicast(TtlScope::Site, &heartbeat(GROUP, 1))
        .unwrap();
    assert_eq!(
        b.recv_timeout(Duration::from_secs(5)).unwrap(),
        Some((a.local_host(), heartbeat(GROUP, 1)))
    );
    assert_eq!(c.recv_timeout(QUIET).unwrap(), None);
}

/// A saturated unicast socket cannot starve a group socket: the sweep
/// starts one past the socket that delivered last, so with a thousand
/// unicast datagrams queued a multicast packet still comes out within
/// two receives.
#[test]
fn a_busy_unicast_socket_does_not_starve_multicast() {
    use std::net::UdpSocket;

    let Some((mut a, mut b)) = multicast_pair(49_443, &[GROUP]) else {
        return;
    };
    let raw = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let filler = lbrm_wire::encode(&heartbeat(GROUP, 1)).unwrap();
    for _ in 0..1000 {
        raw.send_to(&filler, b.local_addr()).unwrap();
    }
    let late = heartbeat(GROUP, 2);
    a.send_multicast(TtlScope::Site, &late).unwrap();

    let wait = Duration::from_secs(5);
    let first_two = [b.recv_timeout(wait).unwrap(), b.recv_timeout(wait).unwrap()];
    assert!(
        first_two.contains(&Some((a.local_host(), late))),
        "multicast stuck behind the unicast backlog: {first_two:?}"
    );
}

/// Runs `f` on its own thread and fails instead of hanging if it has
/// not returned within five seconds.
fn within_5s<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(f()));
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("an unbounded receive must return once woken")
}

/// A wake ends an unbounded wait whether it was posted before the wait
/// began or while it was under way, and a wake from a waker that
/// outlived its transport does nothing.
#[test]
fn wake_ends_an_unbounded_wait() {
    let Some(mut t) = try_bind(49_445) else {
        return;
    };
    let waker = t.waker().expect("the UDP transport has a waker");

    waker.wake();
    let mut t = within_5s(move || {
        assert_eq!(t.recv_timeout(Duration::MAX).unwrap(), None);
        t
    });

    // Consumed by the wait it ended: the next wait is a wait again.
    let started = std::time::Instant::now();
    assert_eq!(t.recv_timeout(Duration::from_millis(30)).unwrap(), None);
    assert!(started.elapsed() >= Duration::from_millis(30));

    let during = waker.clone();
    let poster = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        during.wake();
    });
    within_5s(move || assert_eq!(t.recv_timeout(Duration::MAX).unwrap(), None));
    poster.join().unwrap();
    waker.wake();
}

/// A wake never swallows a packet that was already queued: of the two
/// waits that follow, one yields the packet and the other ends on the
/// wake.
#[test]
fn wake_does_not_swallow_a_queued_packet() {
    let Some(mut t) = try_bind(49_447) else {
        return;
    };
    let Some(mut peer) = try_bind(49_447) else {
        return;
    };
    let packet = heartbeat(GROUP, 1);
    peer.send_unicast(t.local_host(), &packet).unwrap();
    t.waker().unwrap().wake();

    let from = peer.local_host();
    let got = within_5s(move || {
        [
            t.recv_timeout(Duration::MAX).unwrap(),
            t.recv_timeout(Duration::MAX).unwrap(),
        ]
    });
    assert!(
        got == [Some((from, packet.clone())), None] || got == [None, Some((from, packet))],
        "one packet and one wake, got {got:?}"
    );
}
