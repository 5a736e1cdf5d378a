//! Glue between live UDP endpoints and the doctor sidecar.
//!
//! The trace-side sidecar (`lbrm_core::trace::doctor`) knows nothing
//! about transports; this module exports what the network layer can
//! see — per-endpoint [`RecvCounters`] — as [`MetricsRegistry`] gauges
//! so the admin surface's `/stats` and the self-audit reports carry
//! the receive-path health (truncated datagrams, decode failures)
//! next to the protocol forensics.

use std::sync::Arc;

use lbrm_core::trace::MetricsRegistry;
use lbrm_wire::HostId;

use crate::addr::addr_of;
use crate::udp::{RecvCounters, SendCounters};

/// Publishes one endpoint's receive counters as gauges named
/// `net.<addr>.recv.truncated` and `net.<addr>.recv.decode_errors`,
/// where `<addr>` is the endpoint's UDP address (derived from its
/// [`HostId`]). Idempotent: gauges are set, not accumulated, so the
/// caller can re-publish on every scrape.
pub fn publish_recv_gauges(host: HostId, counters: &RecvCounters, registry: &MetricsRegistry) {
    let addr = addr_of(host);
    registry.set_gauge(&format!("net.{addr}.recv.truncated"), counters.truncated());
    registry.set_gauge(
        &format!("net.{addr}.recv.decode_errors"),
        counters.decode_errors(),
    );
}

/// Builds a probe closure for
/// `DoctorSidecar::register_probe`: each tick (and each `/stats`
/// scrape) it re-publishes the endpoint's receive counters into the
/// given registry. Capture the counters with
/// [`UdpTransport::shared_recv_counters`](crate::UdpTransport::shared_recv_counters)
/// before handing the transport to its endpoint thread.
pub fn recv_gauge_probe(
    host: HostId,
    counters: Arc<RecvCounters>,
    registry: Arc<MetricsRegistry>,
) -> impl Fn() + Send + 'static {
    move || publish_recv_gauges(host, &counters, &registry)
}

/// Publishes one endpoint's send counters as gauges named
/// `net.<addr>.send.datagrams`, `.send.packets`, `.send.bytes` and
/// `.send.errors` — the outbound mirror of [`publish_recv_gauges`].
/// The datagrams/packets ratio on `/stats` shows bundling's framing
/// savings live.
pub fn publish_send_gauges(host: HostId, counters: &SendCounters, registry: &MetricsRegistry) {
    let addr = addr_of(host);
    registry.set_gauge(&format!("net.{addr}.send.datagrams"), counters.datagrams());
    registry.set_gauge(&format!("net.{addr}.send.packets"), counters.packets());
    registry.set_gauge(&format!("net.{addr}.send.bytes"), counters.bytes());
    registry.set_gauge(&format!("net.{addr}.send.errors"), counters.errors());
}

/// Builds a probe closure re-publishing the endpoint's send counters on
/// every tick / `/stats` scrape; the outbound twin of
/// [`recv_gauge_probe`]. Capture the counters with
/// [`UdpTransport::shared_send_counters`](crate::UdpTransport::shared_send_counters)
/// before handing the transport to its endpoint thread.
pub fn send_gauge_probe(
    host: HostId,
    counters: Arc<SendCounters>,
    registry: Arc<MetricsRegistry>,
) -> impl Fn() + Send + 'static {
    move || publish_send_gauges(host, &counters, &registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::host_of;
    use crate::udp::tests::{socket_pair, step};
    use std::collections::VecDeque;
    use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

    /// An oversized datagram (relative to the receive buffer) must
    /// surface as a bump of the published truncation gauge. Real
    /// over-the-wire datagrams cannot exceed the UDP maximum, so the
    /// test shrinks the buffer instead of growing the send.
    #[test]
    fn oversized_datagram_bumps_the_truncation_gauge() {
        let (rx, dst, tx, _) = socket_pair();
        let counters = RecvCounters::default();
        let mut buf = vec![0u8; 1024];
        let mut out = VecDeque::new();
        tx.send_to(&vec![0xAB; 2048], dst).unwrap();
        step(&rx, &mut buf, &mut out, &counters);
        assert!(out.is_empty(), "truncated datagram must not be delivered");

        let SocketAddr::V4(rx_addr) = dst else {
            panic!("ipv4 bind");
        };
        let host = host_of(rx_addr);
        let registry = MetricsRegistry::default();
        publish_recv_gauges(host, &counters, &registry);

        let key = format!("net.{rx_addr}.recv.truncated");
        assert_eq!(registry.gauge(&key), 1, "missing gauge {key}");
        assert_eq!(
            registry.gauge(&format!("net.{rx_addr}.recv.decode_errors")),
            0
        );
    }

    /// Garbage that fits the buffer is a decode error, not truncation,
    /// and lands in the other gauge.
    #[test]
    fn decode_garbage_bumps_the_decode_gauge() {
        let (rx, dst, tx, _) = socket_pair();
        let counters = RecvCounters::default();
        let mut buf = vec![0u8; 1024];
        let mut out = VecDeque::new();
        tx.send_to(&[0xFF; 16], dst).unwrap();
        step(&rx, &mut buf, &mut out, &counters);
        assert!(out.is_empty(), "garbage must not decode");

        let SocketAddr::V4(rx_addr) = dst else {
            panic!("ipv4 bind");
        };
        let registry = MetricsRegistry::default();
        publish_recv_gauges(host_of(rx_addr), &counters, &registry);
        assert_eq!(registry.gauge(&format!("net.{rx_addr}.recv.truncated")), 0);
        assert_eq!(
            registry.gauge(&format!("net.{rx_addr}.recv.decode_errors")),
            1
        );
    }

    /// The probe closure re-publishes current values on every call.
    #[test]
    fn probe_republishes_on_each_call() {
        let counters = Arc::new(RecvCounters::default());
        let registry = Arc::new(MetricsRegistry::default());
        let host = HostId(0x7F00_0001_0000 | 4242);
        let addr = addr_of(host);
        let probe = recv_gauge_probe(host, Arc::clone(&counters), Arc::clone(&registry));
        probe();
        assert_eq!(registry.gauge(&format!("net.{addr}.recv.truncated")), 0);
        assert!(registry
            .gauges()
            .contains_key(&format!("net.{addr}.recv.decode_errors")));
    }

    /// Real sends through a transport surface in the published send
    /// gauges, including the datagrams/packets split bundling creates.
    #[test]
    fn send_gauges_reflect_transport_sends() {
        use crate::addr::GroupMap;
        use crate::udp::UdpTransport;
        use crate::Transport;
        use bytes::Bytes;
        use lbrm_wire::{EpochId, GroupId, Packet, Seq, SourceId};

        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        let host = t.local_host();
        let counters = t.shared_send_counters();
        let registry = Arc::new(MetricsRegistry::default());
        let probe = send_gauge_probe(host, counters, Arc::clone(&registry));

        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        let packets: Vec<Packet> = (1..=6)
            .map(|seq| Packet::Data {
                group: GroupId(1),
                source: SourceId(1),
                seq: Seq(seq),
                epoch: EpochId(0),
                payload: Bytes::from_static(b"gauge"),
            })
            .collect();
        t.send_unicast_bundle(host_of(peer_addr), &packets).unwrap();

        probe();
        let addr = addr_of(host);
        assert_eq!(registry.gauge(&format!("net.{addr}.send.datagrams")), 1);
        assert_eq!(registry.gauge(&format!("net.{addr}.send.packets")), 6);
        assert!(registry.gauge(&format!("net.{addr}.send.bytes")) > 0);
        assert_eq!(registry.gauge(&format!("net.{addr}.send.errors")), 0);
    }
}
