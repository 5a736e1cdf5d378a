//! Real UDP multicast transport: `std::net` sockets the endpoint thread
//! waits on itself.
//!
//! An endpoint owns every descriptor it receives on. One ephemeral
//! unicast socket is its identity (its address packs into the
//! [`HostId`] carried in packets) and carries all of its sends. Each
//! distinct group *port* it has joined is one more socket, bound to
//! that port with `SO_REUSEADDR` so any number of endpoints — in this
//! process or in others on the machine — can listen on the same port,
//! and with `IP_MULTICAST_ALL` cleared so each hears only the groups it
//! joined itself. An `eventfd` is the [`Waker`]'s way in.
//!
//! There are no reader threads: [`recv_timeout`](Transport::recv_timeout)
//! runs on the caller's thread and hands back one packet per call — the
//! rest of an already-decoded bundle if there is one, else the first
//! datagram a non-blocking sweep of the sockets finds (starting one
//! past the socket that delivered last, so a saturated socket cannot
//! starve the others), else it sleeps in `ppoll` on all descriptors and
//! reads only the ones reported ready. A zero timeout stops after the
//! sweep and leaves the `eventfd` unread. Corrupt or truncated datagrams
//! are dropped and counted; self-echoed multicast (loopback is left
//! enabled so several endpoints can share one machine) is filtered by
//! source address before decoding; any other socket error is returned
//! to the caller. Multicast sends set the IP TTL from the [`TtlScope`],
//! so site-scoped repairs really do stay site-local (§2.2.1).
//!
//! The system calls `std::net` has no safe spelling for live in
//! [`crate::sys`], which is Linux-only: elsewhere [`UdpTransport::bind`]
//! fails with [`io::ErrorKind::Unsupported`].

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lbrm_wire::{
    decode_bundle, decode_bytes, encode_into, is_bundle, BundleBuilder, GroupId, HostId, Packet,
    TtlScope, MAX_PACKET_SIZE,
};

use lbrm_core::trace::{GaugeTable, Gauges, MetricsRegistry};

use crate::addr::{addr_of, host_of, GroupMap};
use crate::sys::{self, EventFd, PollSet};
use crate::{Transport, Waker};

/// Receive buffers are one byte larger than the biggest valid packet, so
/// a receive filling the whole buffer is an unambiguous truncation
/// signal — a datagram of exactly [`MAX_PACKET_SIZE`] bytes still reads
/// with headroom and is never misflagged.
const RECV_BUF_SIZE: usize = MAX_PACKET_SIZE + 1;

/// Why a received datagram was dropped before it reached the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropReason {
    /// It filled the receive buffer: the OS cut the payload off, so a
    /// decode failure downstream would misdiagnose the problem as peer
    /// corruption.
    Truncated,
    /// It fit, and failed wire decoding.
    Undecodable,
}

/// One endpoint's transport counters, one row each, attached to a
/// registry under `net.<addr>` by [`UdpTransport::attach_gauges`].
/// Receive drops are split so an operator can tell "peer sends garbage"
/// apart from "peer sends packets bigger than the receive buffer";
/// `send.datagrams` and `send.packets` diverge wherever runs were
/// bundled — their ratio is the live measure of the framing bundling
/// saves.
static TRANSPORT_GAUGES: GaugeTable = GaugeTable {
    root: "net",
    rows: &[
        "recv.truncated",
        "recv.decode_errors",
        "send.datagrams",
        "send.packets",
        "send.bytes",
        "send.errors",
    ],
    hide_zero: false,
};

/// Datagrams dropped because they overflowed the receive buffer (larger
/// than [`MAX_PACKET_SIZE`], so never decodable).
const RECV_TRUNCATED: usize = 0;
/// Well-sized datagrams that failed wire decoding.
const RECV_DECODE_ERRORS: usize = 1;
/// Datagrams handed to the socket.
const SEND_DATAGRAMS: usize = 2;
/// Protocol packets sent (each bundle datagram carries several).
const SEND_PACKETS: usize = 3;
/// Wire bytes sent, including bundle framing.
const SEND_BYTES: usize = 4;
/// Sends that failed: encoding errors (e.g. an oversized packet) and
/// socket errors.
const SEND_ERRORS: usize = 5;

/// Transmits one already-encoded frame (a single packet or a sealed
/// bundle) and charges it to the `send.*` rows; the per-frame packet
/// count is read from the bundle header when present.
fn send_frame(sock: &UdpSocket, gauges: &Gauges, frame: &[u8], dst: SocketAddr) -> io::Result<()> {
    let packets = if is_bundle(frame) {
        u64::from(frame[3])
    } else {
        1
    };
    match sock.send_to(frame, dst) {
        Ok(_) => {
            gauges.add(SEND_DATAGRAMS, 1);
            gauges.add(SEND_PACKETS, packets);
            gauges.add(SEND_BYTES, frame.len() as u64);
            Ok(())
        }
        Err(e) => {
            gauges.add(SEND_ERRORS, 1);
            Err(e)
        }
    }
}

/// Classifies and decodes one received datagram from `from`, appending
/// its packets to `out` — one for a plain frame, several in order for a
/// bundle (`out` is untouched on error, so a corrupt bundle never
/// delivers a partial prefix). The datagram is copied into a [`Bytes`]
/// once; payload decoding slices that allocation zero-copy.
/// `n == buf.len()` means the OS truncated the datagram to fit — that is
/// [`DropReason::Truncated`], not a decode failure.
fn decode_datagram(
    buf: &[u8],
    n: usize,
    from: HostId,
    out: &mut VecDeque<(HostId, Packet)>,
) -> Result<(), DropReason> {
    if n == buf.len() {
        return Err(DropReason::Truncated);
    }
    let data = Bytes::copy_from_slice(&buf[..n]);
    if is_bundle(&data) {
        let packets = decode_bundle(&data).map_err(|_| DropReason::Undecodable)?;
        out.extend(packets.into_iter().map(|p| (from, p)));
    } else {
        let packet = decode_bytes(data).map_err(|_| DropReason::Undecodable)?;
        out.push_back((from, packet));
    }
    Ok(())
}

/// One non-blocking receive step: takes at most one datagram off `sock`
/// and appends what it decodes to (several packets for a bundle) onto
/// `out`. `Ok(false)` means the socket had nothing queued; `Ok(true)`
/// that a datagram was consumed — delivered, or dropped: an echo of
/// `me`'s own multicast is discarded unread, a truncated or undecodable
/// datagram is charged to `gauges`. `Err` is a socket error.
pub(crate) fn recv_step(
    sock: &UdpSocket,
    buf: &mut [u8],
    me: HostId,
    out: &mut VecDeque<(HostId, Packet)>,
    gauges: &Gauges,
) -> io::Result<bool> {
    let Some((n, from)) = sys::try_recv_from(sock, buf)? else {
        return Ok(false);
    };
    let from = host_of(from);
    if from != me {
        if let Err(reason) = decode_datagram(buf, n, from, out) {
            let row = match reason {
                DropReason::Truncated => RECV_TRUNCATED,
                DropReason::Undecodable => RECV_DECODE_ERRORS,
            };
            gauges.add(row, 1);
        }
    }
    Ok(true)
}

/// A UDP transport.
pub struct UdpTransport {
    unicast: UdpSocket,
    /// One receive socket per distinct group port joined, in join order.
    ports: Vec<(u16, UdpSocket)>,
    wake: Arc<EventFd>,
    /// Slot 0 is `wake`, slot 1 `unicast`, slot `2 + i` is `ports[i]`.
    poll: PollSet,
    /// The socket (0 = unicast, `1 + i` = `ports[i]`) the next receive
    /// sweep starts at: one past whichever delivered last.
    next_sock: usize,
    /// The one receive buffer, kept for the transport's life.
    buf: Box<[u8]>,
    /// Packets of the last datagram not yet handed to the caller.
    pending: VecDeque<(HostId, Packet)>,
    /// The last receive was a zero-timeout sweep that found nothing, so
    /// the next wait goes straight to `ppoll`.
    swept_empty: bool,
    host: HostId,
    groups: GroupMap,
    interface: Ipv4Addr,
    members: Vec<GroupId>,
    gauges: Arc<Gauges>,
    /// Reusable encode scratch: steady-state sends reuse this buffer's
    /// capacity instead of allocating per packet.
    scratch: BytesMut,
    bundler: BundleBuilder,
    /// The multicast TTL the socket currently carries: the option is
    /// sticky, so only a scope change costs a `setsockopt`.
    multicast_ttl: Option<u32>,
}

impl UdpTransport {
    /// Binds a transport on `interface` (use `127.0.0.1` for single-host
    /// loopback testing, a LAN address or `0.0.0.0` for deployment).
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures;
    /// [`io::ErrorKind::Unsupported`] on systems other than Linux.
    pub fn bind(interface: Ipv4Addr, groups: GroupMap) -> io::Result<Self> {
        let wake = Arc::new(EventFd::new()?);
        let unicast = UdpSocket::bind(SocketAddrV4::new(interface, 0))?;
        // Loopback stays on so several endpoints can share one machine.
        unicast.set_multicast_loop_v4(true)?;
        let local = match unicast.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => {
                return Err(io::Error::new(io::ErrorKind::Unsupported, "IPv6 bind"))
            }
        };
        let advertised = SocketAddrV4::new(interface, local.port());
        let mut transport = UdpTransport {
            unicast,
            ports: Vec::new(),
            wake,
            poll: PollSet::new(),
            next_sock: 0,
            buf: vec![0u8; RECV_BUF_SIZE].into_boxed_slice(),
            pending: VecDeque::new(),
            swept_empty: false,
            host: host_of(advertised),
            groups,
            interface,
            members: Vec::new(),
            gauges: Arc::new(Gauges::new(&TRANSPORT_GAUGES)),
            scratch: BytesMut::with_capacity(2048),
            bundler: BundleBuilder::with_default_mtu(),
            multicast_ttl: None,
        };
        transport.rebuild_poll();
        Ok(transport)
    }

    /// Re-lists the descriptors `recv_timeout` waits on; call after the
    /// set of port sockets changed.
    fn rebuild_poll(&mut self) {
        self.poll = PollSet::new();
        self.poll.push(&*self.wake);
        self.poll.push(&self.unicast);
        for (_, sock) in &self.ports {
            self.poll.push(sock);
        }
        self.next_sock = 0;
    }

    /// One [`recv_step`] on socket `i` (0 = unicast, `1 + k` =
    /// `ports[k]`), called with nothing pending; says whether something
    /// is now. On a consumed datagram the next sweep starts after `i`.
    fn recv_on(&mut self, i: usize) -> io::Result<bool> {
        let sock = match i.checked_sub(1) {
            None => &self.unicast,
            Some(k) => &self.ports[k].1,
        };
        if recv_step(
            sock,
            &mut self.buf,
            self.host,
            &mut self.pending,
            &self.gauges,
        )? {
            self.next_sock = (i + 1) % (1 + self.ports.len());
        }
        Ok(!self.pending.is_empty())
    }

    /// The local unicast address peers reply to.
    pub fn local_addr(&self) -> SocketAddrV4 {
        addr_of(self.host)
    }

    /// Lists this transport's counter rows in `registry`
    /// as `net.<addr>.<row>`, read in place from then on — also after
    /// the transport moved to its endpoint thread.
    pub fn attach_gauges(&self, registry: &MetricsRegistry) {
        registry.attach(self.local_addr(), Arc::clone(&self.gauges));
    }

    /// Points the socket's multicast TTL at `scope`.
    fn set_scope(&mut self, scope: TtlScope) -> io::Result<()> {
        let ttl = u32::from(scope.ttl());
        if self.multicast_ttl != Some(ttl) {
            self.unicast.set_multicast_ttl_v4(ttl)?;
            self.multicast_ttl = Some(ttl);
        }
        Ok(())
    }

    /// Encodes `packet` into the scratch and sends it as a bare datagram.
    fn send_bare(&mut self, dst: SocketAddr, packet: &Packet) -> io::Result<()> {
        self.scratch.clear();
        if let Err(e) = encode_into(packet, &mut self.scratch) {
            self.gauges.add(SEND_ERRORS, 1);
            return Err(io::Error::other(e));
        }
        send_frame(&self.unicast, &self.gauges, &self.scratch, dst)
    }

    /// Sends a run of packets to one destination: a lone packet bare,
    /// two or more coalesced into MTU-bounded bundle frames.
    fn send_run(&mut self, dst: SocketAddr, packets: &[Packet]) -> io::Result<()> {
        if let [packet] = packets {
            return self.send_bare(dst, packet);
        }
        let sent = self.send_bundled(dst, packets);
        // A refused frame abandons the run with the packet that opened
        // the next frame still pending; left there, the next run would
        // ship it to *its* destination.
        self.bundler.reset();
        sent
    }

    fn send_bundled(&mut self, dst: SocketAddr, packets: &[Packet]) -> io::Result<()> {
        let UdpTransport {
            bundler,
            unicast,
            gauges,
            ..
        } = self;
        for p in packets {
            match bundler.push(p) {
                Ok(Some(frame)) => send_frame(unicast, gauges, frame, dst)?,
                Ok(None) => {}
                Err(e) => {
                    // The failing packet never entered the frame; flush
                    // the valid prefix so it still reaches `dst`, then
                    // surface the error.
                    gauges.add(SEND_ERRORS, 1);
                    if let Some(frame) = bundler.flush() {
                        send_frame(unicast, gauges, frame, dst)?;
                    }
                    return Err(io::Error::other(e));
                }
            }
        }
        if let Some(frame) = bundler.flush() {
            send_frame(unicast, gauges, frame, dst)?;
        }
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn local_host(&self) -> HostId {
        self.host
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        self.send_bare(SocketAddr::V4(addr_of(to)), packet)
    }

    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
        self.set_scope(scope)?;
        self.send_bare(SocketAddr::V4(self.groups.addr(packet.group())), packet)
    }

    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        self.send_run(SocketAddr::V4(addr_of(to)), packets)
    }

    fn send_multicast_bundle(&mut self, scope: TtlScope, packets: &[Packet]) -> io::Result<()> {
        self.set_scope(scope)?;
        // A frame goes to exactly one destination: one run per group.
        for run in packets.chunk_by(|a, b| a.group() == b.group()) {
            let dst = SocketAddr::V4(self.groups.addr(run[0].group()));
            self.send_run(dst, run)?;
        }
        Ok(())
    }

    fn send_unicast_fanout(&mut self, dests: &[HostId], packet: &Packet) -> io::Result<()> {
        self.scratch.clear();
        if let Err(e) = encode_into(packet, &mut self.scratch) {
            self.gauges.add(SEND_ERRORS, 1);
            return Err(io::Error::other(e));
        }
        for &to in dests {
            send_frame(
                &self.unicast,
                &self.gauges,
                &self.scratch,
                SocketAddr::V4(addr_of(to)),
            )?;
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        if let Some(next) = self.pending.pop_front() {
            return Ok(Some(next));
        }
        let socks = 1 + self.ports.len();
        // `None`: too far off to have a deadline — wait for as long as
        // it takes.
        let deadline = Instant::now().checked_add(timeout);
        // The first pass tries every socket without asking `ppoll`: a
        // datagram already queued costs one system call, not two. Right
        // after a zero-timeout sweep found nothing that pass would only
        // repeat it, so the wait starts at `ppoll`, which is
        // level-triggered: whatever arrived since is reported ready.
        let skip_sweep = std::mem::take(&mut self.swept_empty) && !timeout.is_zero();
        let mut polled = false;
        loop {
            if polled || !skip_sweep {
                let first = self.next_sock;
                for i in (first..socks).chain(0..first) {
                    if (!polled || self.poll.ready(1 + i)) && self.recv_on(i)? {
                        return Ok(self.pending.pop_front());
                    }
                }
            }
            if timeout.is_zero() {
                // Nothing readable. A wake stays for the next wait.
                self.swept_empty = true;
                return Ok(None);
            }
            let left = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            // A wake is consumed only by the wait it ends — this one,
            // also when it raced the timeout.
            if (polled && self.poll.ready(0)) || left.is_zero() {
                self.wake.drain();
                return Ok(None);
            }
            // Otherwise: timed out early on a signal, or every ready
            // datagram was an echo or a counted drop. Wait out the rest.
            self.poll.wait(left)?;
            polled = true;
        }
    }

    fn waker(&self) -> Option<Waker> {
        // The waker shares the eventfd, so it stays valid — and
        // harmless — after the transport is gone.
        let wake = Arc::clone(&self.wake);
        Some(Waker::new(move || wake.signal()))
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        if self.members.contains(&group) {
            return Ok(());
        }
        let addr = self.groups.addr(group);
        // Two group ids mapped onto one address are one OS membership.
        if !self.members.iter().any(|m| self.groups.addr(*m) == addr) {
            match self.ports.iter().find(|(port, _)| *port == addr.port()) {
                Some((_, sock)) => sock.join_multicast_v4(addr.ip(), &self.interface)?,
                None => {
                    let sock = sys::bind_reuse(addr.port())?;
                    sock.join_multicast_v4(addr.ip(), &self.interface)?;
                    self.ports.push((addr.port(), sock));
                    self.rebuild_poll();
                }
            }
        }
        self.members.push(group);
        Ok(())
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        let Some(pos) = self.members.iter().position(|g| *g == group) else {
            return Ok(());
        };
        self.members.remove(pos);
        let addr = self.groups.addr(group);
        let Some(at) = self.ports.iter().position(|(port, _)| *port == addr.port()) else {
            return Ok(());
        };
        let on_port: Vec<SocketAddrV4> = self
            .members
            .iter()
            .map(|m| self.groups.addr(*m))
            .filter(|a| a.port() == addr.port())
            .collect();
        if on_port.is_empty() {
            // Closing the socket leaves its groups.
            self.ports.remove(at);
            self.rebuild_poll();
        } else if !on_port.contains(&addr) {
            self.ports[at]
                .1
                .leave_multicast_v4(addr.ip(), &self.interface)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use lbrm_wire::{encode, encode_bundle, EpochId, Seq, SourceId, DEFAULT_BUNDLE_MTU};

    fn data(seq: u32) -> Packet {
        Packet::Data {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(b"x"),
        }
    }

    const ME: HostId = HostId(0);
    const PEER: HostId = HostId(9);

    /// A loopback socket pair: the receiving socket, its address, and a
    /// sender with that sender's host id.
    pub(crate) fn socket_pair() -> (UdpSocket, SocketAddr, UdpSocket, HostId) {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let dst = rx.local_addr().unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let SocketAddr::V4(tx_addr) = tx.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        (rx, dst, tx, host_of(tx_addr))
    }

    /// Runs [`recv_step`] until it consumes the datagram the test just
    /// sent.
    pub(crate) fn step(
        sock: &UdpSocket,
        buf: &mut [u8],
        out: &mut VecDeque<(HostId, Packet)>,
        gauges: &Gauges,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !recv_step(sock, buf, ME, out, gauges).unwrap() {
            assert!(Instant::now() < deadline, "the datagram never arrived");
            std::thread::yield_now();
        }
    }

    #[test]
    fn truncation_is_a_distinct_error() {
        let buf = [0u8; 64];
        let mut out = VecDeque::new();
        // Buffer completely filled: truncation, not a decode failure.
        assert_eq!(
            decode_datagram(&buf, buf.len(), PEER, &mut out),
            Err(DropReason::Truncated)
        );
        // Same bytes with headroom: a plain decode failure, so the two
        // failure modes stay distinguishable downstream.
        assert_eq!(
            decode_datagram(&buf, 32, PEER, &mut out),
            Err(DropReason::Undecodable)
        );
        assert!(out.is_empty(), "errors must not deliver packets");
    }

    /// Regression: a datagram larger than the receive buffer used to be
    /// silently cut short and handed to the decoder; it must instead be
    /// counted as truncated and never surface as a packet.
    #[test]
    fn oversized_send_is_counted_as_truncated() {
        let (rx, dst, tx, tx_host) = socket_pair();
        let gauges = Gauges::new(&TRANSPORT_GAUGES);
        let mut buf = vec![0u8; 1024];
        let mut out = VecDeque::new();

        // Oversized relative to the receive buffer: the OS truncates the
        // datagram, the receive reports a full buffer, and the drop
        // lands in the truncation counter.
        tx.send_to(&vec![0xAB; 2048], dst).unwrap();
        step(&rx, &mut buf, &mut out, &gauges);
        assert!(out.is_empty(), "truncated datagram must not be delivered");
        assert_eq!(gauges.get(RECV_TRUNCATED), 1);
        assert_eq!(gauges.get(RECV_DECODE_ERRORS), 0);

        // The receive path keeps working: a valid packet after the
        // oversized one still decodes and carries the sender's address.
        tx.send_to(&encode(&data(7)).unwrap(), dst).unwrap();
        step(&rx, &mut buf, &mut out, &gauges);
        assert_eq!(out, [(tx_host, data(7))]);
        assert_eq!(gauges.get(RECV_TRUNCATED), 1);
    }

    /// A datagram of exactly [`MAX_PACKET_SIZE`] bytes must *not* be
    /// flagged as truncated: the receive buffer keeps one byte of
    /// headroom precisely so the largest valid packet reads clean.
    #[test]
    fn max_size_datagram_is_not_misflagged() {
        let (rx, dst, tx, _) = socket_pair();
        // Some environments cap datagram size below the UDP maximum;
        // skip (don't fail) when the send itself is refused.
        if let Err(e) = tx.send_to(&vec![0xCD; MAX_PACKET_SIZE], dst) {
            eprintln!("skipping max-size datagram test: send failed: {e}");
            return;
        }
        let gauges = Gauges::new(&TRANSPORT_GAUGES);
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = VecDeque::new();
        step(&rx, &mut buf, &mut out, &gauges);
        assert!(out.is_empty(), "garbage payload must not decode");
        assert_eq!(
            gauges.get(RECV_TRUNCATED),
            0,
            "max-size datagram wrongly counted as truncated"
        );
        assert_eq!(gauges.get(RECV_DECODE_ERRORS), 1);
    }

    /// A bundle datagram unbundles into its packets in order, through
    /// the same receive step that handles plain frames.
    #[test]
    fn bundle_datagram_unbundles_in_order() {
        let (rx, dst, tx, tx_host) = socket_pair();
        let packets: Vec<Packet> = (1..=5).map(data).collect();
        let frames = encode_bundle(&packets, DEFAULT_BUNDLE_MTU).unwrap();
        assert_eq!(frames.len(), 1, "five tiny packets fit one frame");
        tx.send_to(&frames[0], dst).unwrap();

        let gauges = Gauges::new(&TRANSPORT_GAUGES);
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = VecDeque::new();
        step(&rx, &mut buf, &mut out, &gauges);
        let want: Vec<_> = packets.into_iter().map(|p| (tx_host, p)).collect();
        assert_eq!(out, want, "unbundling must preserve packet order");
        assert_eq!(gauges.get(RECV_DECODE_ERRORS), 0);
    }

    /// A datagram from the endpoint's own address is an echo of its own
    /// multicast: consumed, not delivered, not decoded, not counted.
    #[test]
    fn self_echo_is_discarded_unread() {
        let (rx, dst, tx, tx_host) = socket_pair();
        tx.send_to(&[0xFF; 16], dst).unwrap();
        tx.send_to(&encode(&data(1)).unwrap(), dst).unwrap();
        let gauges = Gauges::new(&TRANSPORT_GAUGES);
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = VecDeque::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut consumed = 0;
        while consumed < 2 {
            assert!(Instant::now() < deadline, "the datagrams never arrived");
            consumed += usize::from(recv_step(&rx, &mut buf, tx_host, &mut out, &gauges).unwrap());
        }
        assert!(out.is_empty());
        assert_eq!(gauges.get(RECV_DECODE_ERRORS), 0);
        assert!(!recv_step(&rx, &mut buf, tx_host, &mut out, &gauges).unwrap());
    }

    /// A corrupt bundle is one counted decode error and delivers no
    /// partial prefix of its packets.
    #[test]
    fn corrupt_bundle_delivers_nothing() {
        let packets: Vec<Packet> = (1..=3).map(data).collect();
        let mut frame = encode_bundle(&packets, DEFAULT_BUNDLE_MTU).unwrap()[0].to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        buf[..frame.len()].copy_from_slice(&frame);
        let mut out = VecDeque::new();
        assert_eq!(
            decode_datagram(&buf, frame.len(), PEER, &mut out),
            Err(DropReason::Undecodable)
        );
        assert!(out.is_empty(), "corrupt bundle must not deliver a prefix");
    }

    /// Send counters: one datagram per plain send, and a bundled run of
    /// packets collapses into fewer datagrams than packets.
    #[test]
    fn send_counters_track_datagrams_and_packets() {
        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        let to = host_of(peer_addr);

        t.send_unicast(to, &data(1)).unwrap();
        t.send_unicast(to, &data(2)).unwrap();
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 2);
        assert_eq!(t.gauges.get(SEND_PACKETS), 2);
        let wire = encode(&data(1)).unwrap().len() + encode(&data(2)).unwrap().len();
        assert_eq!(t.gauges.get(SEND_BYTES), wire as u64);
        assert_eq!(t.gauges.get(SEND_ERRORS), 0);

        // Ten packets in one run become one datagram.
        let run: Vec<Packet> = (10..20).map(data).collect();
        t.send_unicast_bundle(to, &run).unwrap();
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 3);
        assert_eq!(t.gauges.get(SEND_PACKETS), 12);

        // Fanout: encode once, one datagram per destination.
        t.send_unicast_fanout(&[to, to, to], &data(30)).unwrap();
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 6);
        assert_eq!(t.gauges.get(SEND_PACKETS), 15);
    }

    /// Attached to a registry, the transport's rows are listed by its
    /// address and read in place: a later send or drop shows without
    /// any republishing.
    #[test]
    fn attached_rows_are_named_by_address_and_read_in_place() {
        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        let registry = MetricsRegistry::default();
        t.attach_gauges(&registry);
        let addr = t.local_addr().to_string();
        let name = |row: &str| ["net", &addr, row].join(".");
        let names: Vec<String> = registry.gauges().into_keys().collect();
        let rows = [
            "recv.decode_errors",
            "recv.truncated",
            "send.bytes",
            "send.datagrams",
            "send.errors",
            "send.packets",
        ];
        assert_eq!(names, rows.map(name));

        let (peer, _, _, _) = socket_pair();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        let run: Vec<Packet> = (1..=6).map(data).collect();
        t.send_unicast_bundle(host_of(peer_addr), &run).unwrap();
        let gauge = |row: &str| registry.gauge(&name(row));
        assert_eq!((gauge("send.datagrams"), gauge("send.packets")), (1, 6));
        assert!(gauge("send.bytes") > 0);
        assert_eq!(gauge("send.errors"), 0);

        // Garbage arriving at the transport is a decode error, not a
        // truncation.
        peer.send_to(&[0xFF; 16], t.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge("recv.decode_errors") == 0 {
            assert!(Instant::now() < deadline, "the datagram never arrived");
            assert_eq!(t.recv_timeout(Duration::from_millis(50)).unwrap(), None);
        }
        assert_eq!(gauge("recv.truncated"), 0);
    }

    /// The socket's multicast TTL is set only when the scope changes,
    /// so it must always equal the TTL of the last scope sent at — on
    /// the plain and the bundled path alike.
    #[test]
    fn multicast_ttl_follows_the_last_scope() {
        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        assert!(t.unicast.multicast_loop_v4().unwrap());
        let ttl = |t: &UdpTransport| t.unicast.multicast_ttl_v4().unwrap();
        for scope in [
            TtlScope::Site,
            TtlScope::Global,
            TtlScope::Global,
            TtlScope::Site,
            TtlScope::Region,
        ] {
            t.send_multicast(scope, &data(1)).unwrap();
            assert_eq!(ttl(&t), u32::from(scope.ttl()));
        }
        t.send_multicast_bundle(TtlScope::Global, &[data(2), data(3)])
            .unwrap();
        assert_eq!(ttl(&t), u32::from(TtlScope::Global.ttl()));
        t.send_multicast(TtlScope::Site, &data(4)).unwrap();
        assert_eq!(ttl(&t), u32::from(TtlScope::Site.ttl()));
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 7);
    }

    /// A packet too large for any datagram is rejected at encode time
    /// and lands in the send error counter — on both the plain path and
    /// the bundle path (where it must not corrupt the pending frame).
    #[test]
    fn oversized_packet_is_counted_as_send_error() {
        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        let to = host_of(peer_addr);

        let oversized = Packet::Data {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(1),
            epoch: EpochId(0),
            payload: Bytes::from(vec![0u8; MAX_PACKET_SIZE]),
        };
        assert!(t.send_unicast(to, &oversized).is_err());
        assert_eq!(t.gauges.get(SEND_ERRORS), 1);
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 0);

        // Bundle path: the valid prefix is flushed, the oversized
        // packet is rejected, and later sends still work.
        let run = vec![data(1), data(2), oversized];
        assert!(t.send_unicast_bundle(to, &run).is_err());
        assert_eq!(t.gauges.get(SEND_ERRORS), 2);
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 1, "valid prefix flushed");
        assert_eq!(t.gauges.get(SEND_PACKETS), 2);
        t.send_unicast_bundle(to, &[data(3), data(4)]).unwrap();
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 2);
        assert_eq!(t.gauges.get(SEND_PACKETS), 4);
    }

    /// Regression: a socket error on a sealed frame used to return with
    /// the packet that opened the *next* frame still in the builder, and
    /// the next bundled run — to whatever destination — shipped it.
    #[test]
    fn failed_bundle_run_leaves_nothing_for_the_next_destination() {
        let mut t = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        let big = |seq: u32| Packet::Retrans {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(seq),
            payload: Bytes::from(vec![0x5A; 900]),
        };
        // Two 900-byte packets cannot share a 1400-byte frame, so the
        // second push seals the first frame — and port 0 is unsendable.
        let nowhere = host_of(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0));
        assert!(t.send_unicast_bundle(nowhere, &[big(1), big(2)]).is_err());
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 0);

        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        t.send_unicast_bundle(host_of(peer_addr), &[data(3), data(4)])
            .unwrap();
        assert_eq!(t.gauges.get(SEND_DATAGRAMS), 1);
        assert_eq!(t.gauges.get(SEND_PACKETS), 2);

        let gauges = Gauges::new(&TRANSPORT_GAUGES);
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = VecDeque::new();
        step(&peer, &mut buf, &mut out, &gauges);
        let me = t.local_host();
        assert_eq!(
            out,
            [(me, data(3)), (me, data(4))],
            "exactly the second run"
        );
    }
}
