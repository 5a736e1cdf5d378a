//! Transports for LBRM: run the sans-IO protocol machines over real
//! sockets, one plain thread per endpoint (no async runtime required).
//!
//! * [`addr`] — the transport addressing scheme: IPv4 socket addresses
//!   pack losslessly into [`lbrm_wire::HostId`]s, and multicast groups
//!   map onto administratively-scoped `239.195.0.0/16` addresses.
//! * [`hub`] — an in-process loopback transport (every endpoint in one
//!   process, zero configuration): ideal for tests, demos, and CI where
//!   multicast routing is unavailable.
//! * [`udp`] — the real thing: UDP multicast with TTL-scoped sends,
//!   matching the paper's deployment model. The endpoint thread waits
//!   on its own sockets and counts its drops and sends in rows a
//!   metrics registry reads in place; Linux-only.
//! * [`endpoint`] — the driver that owns a machine and a transport,
//!   translating packets, timers and application commands.
//!
//! The same [`lbrm_core::Machine`] values run unchanged under the
//! deterministic simulator (`lbrm-sim`) and these transports.

// `deny`, not `forbid`, so that `sys` — and nothing else — can opt out.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod endpoint;
pub mod hub;
pub mod lossy;
#[allow(unsafe_code)]
mod sys;
pub mod udp;

pub use addr::{addr_of, host_of, GroupMap};
pub use endpoint::{Endpoint, EndpointEvent, EndpointHandle};
pub use hub::{Hub, HubTransport};
pub use lossy::LossyTransport;
pub use udp::UdpTransport;

use std::io;
use std::sync::Arc;
use std::time::Duration;

use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

/// Interrupts a transport's blocked
/// [`recv_timeout`](Transport::recv_timeout) from another thread (see
/// [`Transport::waker`]). Cheap to clone; waking a transport that has
/// been dropped does nothing.
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    /// A waker that runs `wake` on every [`wake`](Waker::wake) call.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        Waker(Arc::new(wake))
    }

    /// Makes the transport's current (or, if it is not waiting, next)
    /// `recv_timeout` return `Ok(None)` without waiting out its timeout.
    pub fn wake(&self) {
        (self.0)()
    }
}

/// A packet transport: how an endpoint reaches the world.
///
/// Implementations: [`UdpTransport`] (real UDP multicast) and
/// [`HubTransport`] (in-process). All calls are synchronous; the
/// endpoint driver multiplexes receives against protocol timers by
/// bounding each [`recv_timeout`](Transport::recv_timeout) wait, and
/// against application commands through the transport's
/// [`waker`](Transport::waker).
pub trait Transport: Send + 'static {
    /// The local host identity packets will carry.
    fn local_host(&self) -> HostId;

    /// Sends one packet to one host.
    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()>;

    /// Multicasts one packet to its group at the given scope.
    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()>;

    /// Sends a run of packets to one host, bundling them into shared
    /// datagrams where the transport supports it (see
    /// [`lbrm_wire::BundleBuilder`]). The default sends one datagram
    /// per packet; either way the receiver observes the same packets in
    /// the same order, so protocol semantics never depend on bundling.
    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        for p in packets {
            self.send_unicast(to, p)?;
        }
        Ok(())
    }

    /// Multicasts a run of packets at one scope, bundling where
    /// supported. Packets may span groups; bundling transports flush at
    /// every group boundary so each frame goes to a single destination.
    /// The default sends one datagram per packet.
    fn send_multicast_bundle(&mut self, scope: TtlScope, packets: &[Packet]) -> io::Result<()> {
        for p in packets {
            self.send_multicast(scope, p)?;
        }
        Ok(())
    }

    /// Sends one packet to many hosts. Transports with an encoded-bytes
    /// fast path encode once and transmit N times; the default encodes
    /// per destination via [`send_unicast`](Transport::send_unicast).
    fn send_unicast_fanout(&mut self, dests: &[HostId], packet: &Packet) -> io::Result<()> {
        for &to in dests {
            self.send_unicast(to, packet)?;
        }
        Ok(())
    }

    /// Waits up to `timeout` for the next packet addressed to this
    /// endpoint; `Ok(None)` on timeout, or earlier when the transport's
    /// [`waker`](Transport::waker) fired. An endpoint whose transport
    /// has a waker passes timeouts up to [`Duration::MAX`] (nothing to
    /// wait for but packets and wakes), so implementations must not
    /// overflow on `Instant::now() + timeout`.
    ///
    /// [`Duration::ZERO`] means "what is already readable": the call
    /// never sleeps and does not consume a pending wake, which the next
    /// non-zero wait still sees (one taken anyway only costs the
    /// endpoint a loop turn: it checks its commands every turn). The
    /// endpoint drains its backlog this way after a wait returns a
    /// packet.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>>;

    /// A handle other threads use to end a blocked
    /// [`recv_timeout`](Transport::recv_timeout) early. With one, the
    /// endpoint loop sleeps until the next protocol deadline and picks
    /// posted commands up the moment they arrive; without one (the
    /// default) it falls back to waking on a short bounded tick.
    /// Wrappers must forward the inner transport's waker.
    fn waker(&self) -> Option<Waker> {
        None
    }

    /// Joins a multicast group.
    fn join(&mut self, group: GroupId) -> io::Result<()>;

    /// Leaves a multicast group.
    fn leave(&mut self, group: GroupId) -> io::Result<()>;
}
