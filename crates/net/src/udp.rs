//! Real UDP multicast transport (threads + `std::net`).
//!
//! One ephemeral unicast socket is the endpoint's identity (its address
//! packs into the [`HostId`] carried in packets), and each joined group
//! is served by a per-port receive socket bound to the group port. A
//! reader thread per socket decodes datagrams into a channel; corrupt
//! datagrams are dropped at the wire layer, and self-echoed multicast
//! (loopback is left enabled so several endpoints can share one machine)
//! is filtered by source address. Multicast sends set the IP TTL from
//! the [`TtlScope`], so site-scoped repairs really do stay site-local
//! (§2.2.1).
//!
//! Because plain `std::net` cannot set `SO_REUSEPORT` before binding,
//! endpoints in the *same process* share one OS socket per group port
//! through a process-local registry that fans received datagrams out to
//! every subscribed transport. Separate processes on one machine still
//! need one port per process; distinct machines are unaffected.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use lbrm_wire::{
    decode_bundle, decode_bytes, encode_into, is_bundle, BundleBuilder, GroupId, HostId, Packet,
    TtlScope, MAX_PACKET_SIZE,
};

use crate::addr::{addr_of, host_of, GroupMap};
use crate::pool::BufferPool;
use crate::{recv_inbound, Inbound, Transport, Waker};

/// How often reader threads wake to check for shutdown.
const READ_TICK: Duration = Duration::from_millis(50);

/// Receive buffers are one byte larger than the biggest valid packet, so
/// `recv_from` filling the whole buffer is an unambiguous truncation
/// signal — a datagram of exactly [`MAX_PACKET_SIZE`] bytes still reads
/// with headroom and is never misflagged.
const RECV_BUF_SIZE: usize = MAX_PACKET_SIZE + 1;

/// Process-wide recycling pool for reader-thread receive buffers; the
/// cap bounds idle memory at a handful of max-size datagram buffers no
/// matter how many short-lived reader threads come and go.
static RECV_POOL: BufferPool = BufferPool::new(RECV_BUF_SIZE, 8);

type PacketTx = mpsc::Sender<Inbound>;

/// Receive-path health counters for one endpoint, shared with its reader
/// threads. Datagrams dropped before decoding used to vanish silently;
/// these counters make the drops observable so an operator can tell
/// "peer sends garbage" apart from "peer sends packets bigger than the
/// receive buffer".
#[derive(Debug, Default)]
pub struct RecvCounters {
    truncated: AtomicU64,
    decode_errors: AtomicU64,
}

impl RecvCounters {
    /// Datagrams dropped because they overflowed the receive buffer
    /// (larger than [`MAX_PACKET_SIZE`], so never decodable).
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Well-sized datagrams that failed wire decoding.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }
}

/// Send-path counters for one endpoint, the outbound mirror of
/// [`RecvCounters`]. `datagrams` and `packets` diverge wherever runs
/// were bundled — their ratio is the live measure of how much framing
/// overhead bundling is saving.
#[derive(Debug, Default)]
pub struct SendCounters {
    datagrams: AtomicU64,
    packets: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
}

impl SendCounters {
    /// Datagrams handed to the socket.
    pub fn datagrams(&self) -> u64 {
        self.datagrams.load(Ordering::Relaxed)
    }

    /// Protocol packets sent (each bundle datagram carries several).
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Wire bytes sent, including bundle framing.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Sends that failed — encoding errors (e.g. an oversized packet)
    /// and socket errors.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn count_frame(&self, packets: u64, bytes: usize) {
        self.datagrams.fetch_add(1, Ordering::Relaxed);
        self.packets.fetch_add(packets, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Transmits one already-encoded frame (a single packet or a sealed
/// bundle) and charges it to the send counters; the per-frame packet
/// count is read from the bundle header when present.
fn send_frame(
    sock: &UdpSocket,
    counters: &SendCounters,
    frame: &[u8],
    dst: SocketAddr,
) -> io::Result<()> {
    let packets = if is_bundle(frame) {
        u64::from(frame[3])
    } else {
        1
    };
    match sock.send_to(frame, dst) {
        Ok(_) => {
            counters.count_frame(packets, frame.len());
            Ok(())
        }
        Err(e) => {
            counters.count_error();
            Err(e)
        }
    }
}

/// The distinct error for a datagram that filled the receive buffer:
/// the payload was cut off by the OS, so a decode failure downstream
/// would misdiagnose the problem as peer corruption.
pub fn truncation_error(n: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "datagram truncated: {n} bytes filled the receive buffer \
             (valid packets are at most {MAX_PACKET_SIZE} bytes)"
        ),
    )
}

/// Classifies and decodes one received datagram, appending its packets
/// to `out` — one for a plain frame, several in order for a bundle
/// (`out` is untouched on error, so a corrupt bundle never delivers a
/// partial prefix). The datagram is copied into a [`Bytes`] once;
/// payload decoding slices that allocation zero-copy. `n == buf.len()`
/// means the OS truncated the datagram to fit — that is reported as the
/// distinct [`truncation_error`], not as a decode failure.
fn decode_datagram(buf: &[u8], n: usize, out: &mut Vec<Packet>) -> io::Result<()> {
    if n == buf.len() {
        return Err(truncation_error(n));
    }
    let data = Bytes::copy_from_slice(&buf[..n]);
    if is_bundle(&data) {
        let packets = decode_bundle(&data)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.extend(packets);
    } else {
        let packet = decode_bytes(data)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push(packet);
    }
    Ok(())
}

/// Charges one receive failure to `counters`, keyed by whether it was a
/// truncation (see [`decode_datagram`]).
fn count_recv_error(counters: &RecvCounters, err: &io::Error) {
    if err.to_string().starts_with("datagram truncated") {
        counters.truncated.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// One blocking receive step shared by both reader loops: reads a
/// datagram into `buf`, classifies truncation vs decode failure
/// (charging drops to `counters`), and on success appends the decoded
/// packets to `out` (several for a bundle) and returns the sender.
/// `Ok(None)` means "nothing deliverable this tick" (timeout, non-IPv4
/// source, or a counted drop); `Err` is a fatal socket error.
pub(crate) fn recv_step(
    sock: &UdpSocket,
    buf: &mut [u8],
    out: &mut Vec<Packet>,
    counters: &RecvCounters,
) -> io::Result<Option<HostId>> {
    let (n, from) = match sock.recv_from(buf) {
        Ok(v) => v,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    let SocketAddr::V4(from) = from else {
        return Ok(None);
    };
    match decode_datagram(buf, n, out) {
        Ok(()) => Ok(Some(host_of(from))),
        Err(e) => {
            count_recv_error(counters, &e);
            Ok(None)
        }
    }
}

/// One subscriber of a shared group-port socket: the transport's local
/// identity (for self-echo filtering), its delivery channel, and its
/// receive-health counters.
struct Subscriber {
    me: HostId,
    tx: PacketTx,
    counters: Arc<RecvCounters>,
}

/// A shared receive socket for one group port, fanned out to every
/// in-process transport that joined a group on that port.
struct PortSocket {
    sock: Arc<UdpSocket>,
    subscribers: Arc<Mutex<Vec<Subscriber>>>,
    /// (group ip, interface) join reference counts.
    joins: HashMap<(Ipv4Addr, Ipv4Addr), usize>,
    stop: Arc<AtomicBool>,
}

fn registry() -> &'static Mutex<HashMap<u16, PortSocket>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u16, PortSocket>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Subscribes `(me, tx)` to the shared socket for `port`, creating the
/// socket and its reader thread on first use, and records a membership
/// join of `group_ip` on `interface`.
fn port_join(
    port: u16,
    group_ip: Ipv4Addr,
    interface: Ipv4Addr,
    me: HostId,
    tx: PacketTx,
    counters: Arc<RecvCounters>,
) -> io::Result<()> {
    let mut reg = lock(registry());
    let entry = match reg.entry(port) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, port))?;
            sock.set_read_timeout(Some(READ_TICK))?;
            let sock = Arc::new(sock);
            let subscribers: Arc<Mutex<Vec<Subscriber>>> = Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            {
                let sock = Arc::clone(&sock);
                let subscribers = Arc::clone(&subscribers);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || fanout_loop(&sock, &subscribers, &stop));
            }
            v.insert(PortSocket {
                sock,
                subscribers,
                joins: HashMap::new(),
                stop,
            })
        }
    };
    let count = entry.joins.entry((group_ip, interface)).or_insert(0);
    if *count == 0 {
        entry.sock.join_multicast_v4(&group_ip, &interface)?;
    }
    *count += 1;
    lock(&entry.subscribers).push(Subscriber { me, tx, counters });
    Ok(())
}

/// Reverses one [`port_join`]: drops the subscription and leaves the
/// group when its refcount hits zero; tears the socket down when the
/// last subscriber is gone.
fn port_leave(port: u16, group_ip: Ipv4Addr, interface: Ipv4Addr, me: HostId) -> io::Result<()> {
    let mut reg = lock(registry());
    let Some(entry) = reg.get_mut(&port) else {
        return Ok(());
    };
    {
        let mut subs = lock(&entry.subscribers);
        if let Some(pos) = subs.iter().position(|s| s.me == me) {
            subs.remove(pos);
        }
    }
    if let Some(count) = entry.joins.get_mut(&(group_ip, interface)) {
        *count = count.saturating_sub(1);
        if *count == 0 {
            entry.joins.remove(&(group_ip, interface));
            let _ = entry.sock.leave_multicast_v4(&group_ip, &interface);
        }
    }
    if lock(&entry.subscribers).is_empty() {
        entry.stop.store(true, Ordering::Relaxed);
        reg.remove(&port);
    }
    Ok(())
}

/// Decodes datagrams from the shared socket and fans them out to every
/// subscriber except the one that sent them. Drops (truncation, decode
/// failure) are charged to every subscriber that would have received the
/// datagram, so each endpoint's stats reflect traffic *it* lost.
fn fanout_loop(sock: &UdpSocket, subscribers: &Mutex<Vec<Subscriber>>, stop: &AtomicBool) {
    let mut buf = RECV_POOL.take();
    let mut packets: Vec<Packet> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let (n, from) = match sock.recv_from(&mut buf) {
            Ok(v) => v,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let SocketAddr::V4(from) = from else { continue };
        let from = host_of(from);
        packets.clear();
        match decode_datagram(&buf, n, &mut packets) {
            Ok(()) => {
                let subs = lock(subscribers);
                for s in subs.iter() {
                    if s.me != from {
                        for packet in &packets {
                            let _ = s.tx.send(Inbound::Packet(from, packet.clone()));
                        }
                    }
                }
            }
            Err(e) => {
                let subs = lock(subscribers);
                for s in subs.iter() {
                    if s.me != from {
                        count_recv_error(&s.counters, &e);
                    }
                }
            }
        }
    }
}

/// Reads unicast datagrams addressed to one endpoint.
fn unicast_loop(
    sock: &UdpSocket,
    tx: &PacketTx,
    me: HostId,
    counters: &RecvCounters,
    stop: &AtomicBool,
) {
    let mut buf = RECV_POOL.take();
    let mut packets: Vec<Packet> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match recv_step(sock, &mut buf, &mut packets, counters) {
            Ok(Some(from)) => {
                if from == me {
                    packets.clear();
                    continue; // multicast loopback echo of our own send
                }
                for packet in packets.drain(..) {
                    if tx.send(Inbound::Packet(from, packet)).is_err() {
                        return;
                    }
                }
            }
            Ok(None) => continue,
            Err(_) => return,
        }
    }
}

/// A UDP transport.
pub struct UdpTransport {
    unicast: Arc<UdpSocket>,
    host: HostId,
    groups: GroupMap,
    interface: Ipv4Addr,
    rx: mpsc::Receiver<Inbound>,
    tx: PacketTx,
    members: Vec<GroupId>,
    counters: Arc<RecvCounters>,
    send: Arc<SendCounters>,
    /// Reusable encode scratch: steady-state sends reuse this buffer's
    /// capacity instead of allocating per packet.
    scratch: BytesMut,
    bundler: BundleBuilder,
    /// The multicast TTL the socket currently carries: the option is
    /// sticky, so only a scope change costs a `setsockopt`.
    multicast_ttl: Option<u32>,
    stop: Arc<AtomicBool>,
}

impl UdpTransport {
    /// Binds a transport on `interface` (use `127.0.0.1` for single-host
    /// loopback testing, a LAN address or `0.0.0.0` for deployment).
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(interface: Ipv4Addr, groups: GroupMap) -> io::Result<Self> {
        let unicast = UdpSocket::bind(SocketAddrV4::new(interface, 0))?;
        unicast.set_read_timeout(Some(READ_TICK))?;
        // Loopback stays on so several endpoints can share one machine.
        unicast.set_multicast_loop_v4(true)?;
        let unicast = Arc::new(unicast);
        let local = match unicast.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => {
                return Err(io::Error::new(io::ErrorKind::Unsupported, "IPv6 bind"))
            }
        };
        let advertised = SocketAddrV4::new(interface, local.port());
        let host = host_of(advertised);
        let (tx, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(RecvCounters::default());
        {
            let sock = Arc::clone(&unicast);
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || unicast_loop(&sock, &tx, host, &counters, &stop));
        }
        Ok(UdpTransport {
            unicast,
            host,
            groups,
            interface,
            rx,
            tx,
            members: Vec::new(),
            counters,
            send: Arc::new(SendCounters::default()),
            scratch: BytesMut::with_capacity(2048),
            bundler: BundleBuilder::with_default_mtu(),
            multicast_ttl: None,
            stop,
        })
    }

    /// The local unicast address peers reply to.
    pub fn local_addr(&self) -> SocketAddrV4 {
        addr_of(self.host)
    }

    /// Receive-path health counters: truncated and undecodable datagrams
    /// dropped by this endpoint's reader threads.
    pub fn recv_counters(&self) -> &RecvCounters {
        &self.counters
    }

    /// A shared handle to the same counters, for probes that outlive a
    /// borrow of the transport (the doctor sidecar reads them from its
    /// own thread each tick).
    pub fn shared_recv_counters(&self) -> Arc<RecvCounters> {
        Arc::clone(&self.counters)
    }

    /// Send-path counters: datagrams, packets, bytes and errors on this
    /// endpoint's outbound sends.
    pub fn send_counters(&self) -> &SendCounters {
        &self.send
    }

    /// A shared handle to the send counters (see
    /// [`shared_recv_counters`](Self::shared_recv_counters)).
    pub fn shared_send_counters(&self) -> Arc<SendCounters> {
        Arc::clone(&self.send)
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
            self.send.count_error();
            return Err(io::Error::other(e));
        }
        send_frame(&self.unicast, &self.send, &self.scratch, dst)
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
            send,
            ..
        } = self;
        for p in packets {
            match bundler.push(p) {
                Ok(Some(frame)) => send_frame(unicast, send, frame, dst)?,
                Ok(None) => {}
                Err(e) => {
                    // The failing packet never entered the frame; flush
                    // the valid prefix so it still reaches `dst`, then
                    // surface the error.
                    send.count_error();
                    if let Some(frame) = bundler.flush() {
                        send_frame(unicast, send, frame, dst)?;
                    }
                    return Err(io::Error::other(e));
                }
            }
        }
        if let Some(frame) = bundler.flush() {
            send_frame(unicast, send, frame, dst)?;
        }
        Ok(())
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for group in std::mem::take(&mut self.members) {
            let addr = self.groups.addr(group);
            let _ = port_leave(addr.port(), *addr.ip(), self.interface, self.host);
        }
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
            self.send.count_error();
            return Err(io::Error::other(e));
        }
        for &to in dests {
            send_frame(
                &self.unicast,
                &self.send,
                &self.scratch,
                SocketAddr::V4(addr_of(to)),
            )?;
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        recv_inbound(&self.rx, timeout, "transport closed")
    }

    fn waker(&self) -> Option<Waker> {
        Some(Waker::for_channel(self.tx.clone()))
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        if self.members.contains(&group) {
            return Ok(());
        }
        let addr = self.groups.addr(group);
        port_join(
            addr.port(),
            *addr.ip(),
            self.interface,
            self.host,
            self.tx.clone(),
            Arc::clone(&self.counters),
        )?;
        self.members.push(group);
        Ok(())
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        if let Some(pos) = self.members.iter().position(|g| *g == group) {
            self.members.remove(pos);
            let addr = self.groups.addr(group);
            port_leave(addr.port(), *addr.ip(), self.interface, self.host)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn truncation_is_a_distinct_error() {
        let buf = [0u8; 64];
        let mut out = Vec::new();
        // Buffer completely filled: truncation, not a decode failure.
        let err = decode_datagram(&buf, buf.len(), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().starts_with("datagram truncated"),
            "unexpected message: {err}"
        );
        // Same bytes with headroom: a plain decode failure, so the two
        // failure modes stay distinguishable downstream.
        let err = decode_datagram(&buf, 32, &mut out).unwrap_err();
        assert!(!err.to_string().starts_with("datagram truncated"));
        assert!(out.is_empty(), "errors must not deliver packets");
    }

    #[test]
    fn count_recv_error_splits_truncation_from_decode() {
        let counters = RecvCounters::default();
        count_recv_error(&counters, &truncation_error(100));
        count_recv_error(
            &counters,
            &io::Error::new(io::ErrorKind::InvalidData, "bad magic"),
        );
        count_recv_error(&counters, &truncation_error(200));
        assert_eq!(counters.truncated(), 2);
        assert_eq!(counters.decode_errors(), 1);
    }

    /// Regression: a datagram larger than the receive buffer used to be
    /// silently cut short and handed to the decoder; it must instead be
    /// counted as truncated and never surface as a packet.
    #[test]
    fn oversized_send_is_counted_as_truncated() {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();

        let counters = RecvCounters::default();
        let mut buf = vec![0u8; 1024];
        let mut out = Vec::new();

        // Oversized relative to the receive buffer: the OS truncates the
        // datagram, recv_from reports a full buffer, and the drop lands
        // in the truncation counter.
        tx.send_to(&vec![0xAB; 2048], dst).unwrap();
        let got = recv_step(&rx, &mut buf, &mut out, &counters).unwrap();
        assert!(got.is_none(), "truncated datagram must not be delivered");
        assert!(out.is_empty());
        assert_eq!(counters.truncated(), 1);
        assert_eq!(counters.decode_errors(), 0);

        // The receive path keeps working: a valid packet after the
        // oversized one still decodes and carries the sender's address.
        let bytes = encode(&data(7)).unwrap();
        tx.send_to(&bytes, dst).unwrap();
        let from = recv_step(&rx, &mut buf, &mut out, &counters)
            .unwrap()
            .expect("valid packet after truncated one");
        let SocketAddr::V4(tx_addr) = tx.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        assert_eq!(from, host_of(tx_addr));
        assert_eq!(out, vec![data(7)]);
        assert_eq!(counters.truncated(), 1);
    }

    /// A datagram of exactly [`MAX_PACKET_SIZE`] bytes must *not* be
    /// flagged as truncated: the receive buffer keeps one byte of
    /// headroom precisely so the largest valid packet reads clean.
    #[test]
    fn max_size_datagram_is_not_misflagged() {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        // Some environments cap datagram size below the UDP maximum;
        // skip (don't fail) when the send itself is refused.
        if let Err(e) = tx.send_to(&vec![0xCD; MAX_PACKET_SIZE], dst) {
            eprintln!("skipping max-size datagram test: send failed: {e}");
            return;
        }
        let counters = RecvCounters::default();
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = Vec::new();
        let got = recv_step(&rx, &mut buf, &mut out, &counters).unwrap();
        assert!(got.is_none(), "garbage payload must not decode");
        assert_eq!(
            counters.truncated(),
            0,
            "max-size datagram wrongly counted as truncated"
        );
        assert_eq!(counters.decode_errors(), 1);
    }

    /// A bundle datagram unbundles into its packets in order, through
    /// the same receive step that handles plain frames.
    #[test]
    fn bundle_datagram_unbundles_in_order() {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dst = rx.local_addr().unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();

        let packets: Vec<Packet> = (1..=5).map(data).collect();
        let frames = encode_bundle(&packets, DEFAULT_BUNDLE_MTU).unwrap();
        assert_eq!(frames.len(), 1, "five tiny packets fit one frame");
        tx.send_to(&frames[0], dst).unwrap();

        let counters = RecvCounters::default();
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = Vec::new();
        let from = recv_step(&rx, &mut buf, &mut out, &counters)
            .unwrap()
            .expect("bundle must decode");
        let SocketAddr::V4(tx_addr) = tx.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        assert_eq!(from, host_of(tx_addr));
        assert_eq!(out, packets, "unbundling must preserve packet order");
        assert_eq!(counters.decode_errors(), 0);
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
        let mut out = Vec::new();
        let err = decode_datagram(&buf, frame.len(), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
        assert_eq!(t.send_counters().datagrams(), 2);
        assert_eq!(t.send_counters().packets(), 2);
        let wire = encode(&data(1)).unwrap().len() + encode(&data(2)).unwrap().len();
        assert_eq!(t.send_counters().bytes(), wire as u64);
        assert_eq!(t.send_counters().errors(), 0);

        // Ten packets in one run become one datagram.
        let run: Vec<Packet> = (10..20).map(data).collect();
        t.send_unicast_bundle(to, &run).unwrap();
        assert_eq!(t.send_counters().datagrams(), 3);
        assert_eq!(t.send_counters().packets(), 12);

        // Fanout: encode once, one datagram per destination.
        t.send_unicast_fanout(&[to, to, to], &data(30)).unwrap();
        assert_eq!(t.send_counters().datagrams(), 6);
        assert_eq!(t.send_counters().packets(), 15);
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
        assert_eq!(t.send_counters().datagrams(), 7);
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
        assert_eq!(t.send_counters().errors(), 1);
        assert_eq!(t.send_counters().datagrams(), 0);

        // Bundle path: the valid prefix is flushed, the oversized
        // packet is rejected, and later sends still work.
        let run = vec![data(1), data(2), oversized];
        assert!(t.send_unicast_bundle(to, &run).is_err());
        assert_eq!(t.send_counters().errors(), 2);
        assert_eq!(t.send_counters().datagrams(), 1, "valid prefix flushed");
        assert_eq!(t.send_counters().packets(), 2);
        t.send_unicast_bundle(to, &[data(3), data(4)]).unwrap();
        assert_eq!(t.send_counters().datagrams(), 2);
        assert_eq!(t.send_counters().packets(), 4);
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
        assert_eq!(t.send_counters().datagrams(), 0);

        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let SocketAddr::V4(peer_addr) = peer.local_addr().unwrap() else {
            panic!("ipv4 bind");
        };
        t.send_unicast_bundle(host_of(peer_addr), &[data(3), data(4)])
            .unwrap();
        assert_eq!(t.send_counters().datagrams(), 1);
        assert_eq!(t.send_counters().packets(), 2);

        let counters = RecvCounters::default();
        let mut buf = vec![0u8; RECV_BUF_SIZE];
        let mut out = Vec::new();
        recv_step(&peer, &mut buf, &mut out, &counters)
            .unwrap()
            .expect("the live run must arrive");
        assert_eq!(out, vec![data(3), data(4)], "exactly the second run");
    }
}
