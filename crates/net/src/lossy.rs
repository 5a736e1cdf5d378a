//! A deterministic lossy wrapper around any [`Transport`].
//!
//! Live-doctor scenarios need real packet loss over real sockets to
//! exercise NACK recovery, but OS loopback never drops. This wrapper
//! discards a seeded fraction of *received* [`Packet::Data`] packets —
//! only fresh multicast data, never heartbeats, NACKs, or `Retrans`
//! repairs — so every induced loss is recoverable through the logger
//! and the run stays reproducible for a given seed.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

use crate::{Transport, Waker};

/// Drops received data packets at a fixed seeded rate.
#[derive(Debug)]
pub struct LossyTransport<T: Transport> {
    inner: T,
    /// Loss rate as a fraction of 2^53, compared against the top 53
    /// bits of a splitmix64 draw — exact for every representable rate.
    rate_p53: u64,
    state: u64,
    /// Shared so a harness can watch induced loss after the transport
    /// has moved into its endpoint thread.
    dropped: Arc<AtomicU64>,
}

impl<T: Transport> LossyTransport<T> {
    /// Wraps `inner`, dropping received data packets with probability
    /// `rate` (clamped to `[0, 1]`), deterministically from `seed`.
    pub fn new(inner: T, rate: f64, seed: u64) -> Self {
        let rate_p53 = (rate.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64;
        LossyTransport {
            inner,
            rate_p53,
            state: seed,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Data packets discarded so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A handle on the drop counter that outlives the transport's move
    /// into an endpoint thread.
    pub fn shared_dropped(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.dropped)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn roll_drop(&mut self) -> bool {
        // splitmix64: statistically solid, dependency-free, and stable
        // across platforms — the same seed replays the same loss trace.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) < self.rate_p53
    }
}

impl<T: Transport> Transport for LossyTransport<T> {
    fn local_host(&self) -> HostId {
        self.inner.local_host()
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        self.inner.send_unicast(to, packet)
    }

    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
        self.inner.send_multicast(scope, packet)
    }

    // Loss is injected on *receive*, so bundle and fanout sends forward
    // straight to the inner transport — without these overrides the
    // trait defaults would silently bypass the inner transport's
    // bundling fast path.
    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        self.inner.send_unicast_bundle(to, packets)
    }

    fn send_multicast_bundle(&mut self, scope: TtlScope, packets: &[Packet]) -> io::Result<()> {
        self.inner.send_multicast_bundle(scope, packets)
    }

    fn send_unicast_fanout(&mut self, dests: &[HostId], packet: &Packet) -> io::Result<()> {
        self.inner.send_unicast_fanout(dests, packet)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        // Honor the caller's deadline across discarded packets: a
        // dropped datagram must not silently extend the wait. A zero
        // timeout ("what is already readable") instead reads past a
        // drop while the inner transport has packets, so a drain is not
        // cut short at the first one; under a flood such a call lasts
        // as long as the drops run, which the drop rate bounds. A
        // timeout too long to have a deadline (an endpoint with nothing
        // scheduled passes `Duration::MAX`) is an unbounded wait.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let left = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => timeout,
            };
            // `None` is a timeout, a wake or an empty backlog: each ends
            // this call.
            let Some((from, packet)) = self.inner.recv_timeout(left)? else {
                return Ok(None);
            };
            if matches!(packet, Packet::Data { .. }) && self.roll_drop() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if !timeout.is_zero() && deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(None);
                }
                continue;
            }
            return Ok(Some((from, packet)));
        }
    }

    fn waker(&self) -> Option<Waker> {
        self.inner.waker()
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.join(group)
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.leave(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Hub;
    use bytes::Bytes;
    use lbrm_wire::{EpochId, Seq, SourceId};

    fn data(seq: u32) -> Packet {
        Packet::Data {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(b"x"),
        }
    }

    fn nack(seq: u32) -> Packet {
        Packet::Nack {
            group: GroupId(1),
            source: SourceId(1),
            requester: HostId(9),
            ranges: vec![lbrm_wire::SeqRange::single(Seq(seq))],
        }
    }

    /// rate=1 drops every data packet (and counts them); control
    /// packets always pass.
    #[test]
    fn drops_data_but_never_control_packets() {
        let hub = Hub::new();
        let mut tx = hub.attach(HostId(1));
        let mut rx = LossyTransport::new(hub.attach(HostId(2)), 1.0, 7);

        tx.send_unicast(HostId(2), &data(1)).unwrap();
        tx.send_unicast(HostId(2), &nack(1)).unwrap();
        // The data packet is swallowed; the NACK behind it arrives
        // within the same wait.
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(matches!(got, Some((_, Packet::Nack { .. }))), "{got:?}");
        assert_eq!(rx.dropped(), 1);
    }

    /// rate=0 is transparent.
    #[test]
    fn zero_rate_passes_everything() {
        let hub = Hub::new();
        let mut tx = hub.attach(HostId(1));
        let mut rx = LossyTransport::new(hub.attach(HostId(2)), 0.0, 7);
        tx.send_unicast(HostId(2), &data(5)).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(matches!(got, Some((_, Packet::Data { .. }))), "{got:?}");
        assert_eq!(rx.dropped(), 0);
    }

    /// Regression: `Instant::now() + Duration::MAX` panics. An unbounded
    /// wait must block until a packet (or a wake) arrives instead.
    #[test]
    fn unbounded_timeout_waits_instead_of_overflowing() {
        let hub = Hub::new();
        let mut tx = hub.attach(HostId(1));
        let mut rx = LossyTransport::new(hub.attach(HostId(2)), 1.0, 7);

        // A dropped data packet keeps the unbounded wait going; the
        // NACK behind it ends it.
        tx.send_unicast(HostId(2), &data(1)).unwrap();
        tx.send_unicast(HostId(2), &nack(1)).unwrap();
        let got = rx.recv_timeout(Duration::MAX).unwrap();
        assert!(matches!(got, Some((_, Packet::Nack { .. }))), "{got:?}");

        // With nothing queued, only the forwarded waker ends it.
        let waker = rx.waker().expect("hub transports have a waker");
        let t = std::thread::spawn(move || rx.recv_timeout(Duration::MAX).unwrap());
        waker.wake();
        assert_eq!(t.join().unwrap(), None);
    }

    /// Regression: a zero-timeout call used to return `None` at the
    /// first dropped packet, cutting the endpoint's drain short. It
    /// reads on while the inner transport has packets, so a drain
    /// returns exactly the ones not dropped.
    #[test]
    fn zero_timeout_reads_past_dropped_packets() {
        let hub = Hub::new();
        let mut tx = hub.attach(HostId(1));
        let mut rx = LossyTransport::new(hub.attach(HostId(2)), 0.5, 7);
        let mut oracle = LossyTransport::new(hub.attach(HostId(3)), 0.5, 7);
        let kept: Vec<u32> = (1..=20).filter(|_| !oracle.roll_drop()).collect();
        assert!(!kept.is_empty() && kept.len() < 20, "{kept:?}");

        for seq in 1..=20 {
            tx.send_unicast(HostId(2), &data(seq)).unwrap();
        }
        let mut got = Vec::new();
        while let Some((_, packet)) = rx.recv_timeout(Duration::ZERO).unwrap() {
            let Packet::Data { seq, .. } = packet else {
                panic!("only data was sent: {packet:?}");
            };
            got.push(seq.raw());
        }
        assert_eq!(got, kept);
        assert_eq!(rx.dropped(), 20 - kept.len() as u64);
    }

    /// An inner transport that always has a data packet readable, for
    /// two seconds after it is made.
    struct Flood(Instant);

    impl Transport for Flood {
        fn local_host(&self) -> HostId {
            HostId(2)
        }
        fn send_unicast(&mut self, _: HostId, _: &Packet) -> io::Result<()> {
            Ok(())
        }
        fn send_multicast(&mut self, _: TtlScope, _: &Packet) -> io::Result<()> {
            Ok(())
        }
        fn recv_timeout(&mut self, _: Duration) -> io::Result<Option<(HostId, Packet)>> {
            let flooding = self.0.elapsed() < Duration::from_secs(2);
            Ok(flooding.then(|| (HostId(1), data(1))))
        }
        fn join(&mut self, _: GroupId) -> io::Result<()> {
            Ok(())
        }
        fn leave(&mut self, _: GroupId) -> io::Result<()> {
            Ok(())
        }
    }

    /// A non-zero wait still ends at its deadline while dropped data
    /// keeps arriving: only a zero timeout reads on past drops.
    #[test]
    fn a_wait_ends_at_its_deadline_under_a_flood_of_drops() {
        let mut rx = LossyTransport::new(Flood(Instant::now()), 1.0, 7);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)).unwrap(), None);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "the wait took {took:?}");
        assert!(rx.dropped() > 0);
    }

    /// The same seed replays the same drop decisions.
    #[test]
    fn same_seed_same_decisions() {
        let decisions = |seed: u64| {
            let hub = Hub::new();
            let mut t = LossyTransport::new(hub.attach(HostId(2)), 0.5, seed);
            (0..64).map(|_| t.roll_drop()).collect::<Vec<_>>()
        };
        assert_eq!(decisions(42), decisions(42));
        assert_ne!(decisions(42), decisions(43));
    }
}
