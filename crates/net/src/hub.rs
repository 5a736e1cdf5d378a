//! In-process hub transport.
//!
//! A [`Hub`] is a software multicast fabric inside one process: each
//! endpoint attaches and gets a [`HubTransport`]. Unicast goes straight
//! to the target's queue; multicast fans out to the group members
//! (excluding the sender, like IP multicast with loopback off). No
//! network configuration, no permissions — the reliable way to exercise
//! real endpoints in tests and demos.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

use crate::{Transport, Waker};

/// What the hub queues for an endpoint.
enum Inbound {
    /// A decoded packet and the host that sent it.
    Packet(HostId, Packet),
    /// A [`Waker::wake`]: ends the current wait with no packet.
    Wake,
}

#[derive(Default)]
struct HubState {
    endpoints: HashMap<HostId, mpsc::Sender<Inbound>>,
    groups: HashMap<GroupId, BTreeSet<HostId>>,
    /// Failure injection: partitioned hosts receive nothing.
    partitioned: BTreeSet<HostId>,
}

/// The shared fabric.
#[derive(Clone, Default)]
pub struct Hub {
    state: Arc<Mutex<HubState>>,
}

impl Hub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Hub::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches an endpoint with identity `host`.
    ///
    /// # Panics
    ///
    /// If `host` is already attached.
    pub fn attach(&self, host: HostId) -> HubTransport {
        let (tx, rx) = mpsc::channel();
        let mut st = self.lock();
        assert!(
            st.endpoints.insert(host, tx.clone()).is_none(),
            "host {host} attached twice"
        );
        HubTransport {
            hub: self.clone(),
            host,
            rx,
            tx,
        }
    }

    /// Current member count of `group`.
    pub fn group_size(&self, group: GroupId) -> usize {
        self.lock().groups.get(&group).map_or(0, |g| g.len())
    }

    /// Failure injection: while partitioned, `host` receives nothing
    /// (its own sends still go out, like an asymmetric link failure; use
    /// two calls for a full partition).
    pub fn set_partitioned(&self, host: HostId, partitioned: bool) {
        let mut st = self.lock();
        if partitioned {
            st.partitioned.insert(host);
        } else {
            st.partitioned.remove(&host);
        }
    }

    fn deliver(&self, from: HostId, to: HostId, packet: &Packet) {
        let st = self.lock();
        if st.partitioned.contains(&to) {
            return;
        }
        if let Some(tx) = st.endpoints.get(&to) {
            // A closed queue means the endpoint shut down; like UDP, the
            // packet is silently dropped.
            let _ = tx.send(Inbound::Packet(from, packet.clone()));
        }
    }

    fn multicast(&self, from: HostId, packet: &Packet) {
        let members: Vec<HostId> = {
            let st = self.lock();
            st.groups
                .get(&packet.group())
                .map(|g| g.iter().copied().filter(|&m| m != from).collect())
                .unwrap_or_default()
        };
        for m in members {
            self.deliver(from, m, packet);
        }
    }

    /// Delivers a run of packets to one host under a single lock
    /// acquisition — the hub's analogue of a bundled datagram. Packet
    /// order is preserved, so receivers cannot tell batched delivery
    /// from per-packet delivery.
    fn deliver_batch(&self, from: HostId, to: HostId, packets: &[Packet]) {
        let st = self.lock();
        if st.partitioned.contains(&to) {
            return;
        }
        if let Some(tx) = st.endpoints.get(&to) {
            for packet in packets {
                let _ = tx.send(Inbound::Packet(from, packet.clone()));
            }
        }
    }
}

/// One endpoint's connection to a [`Hub`].
pub struct HubTransport {
    hub: Hub,
    host: HostId,
    rx: mpsc::Receiver<Inbound>,
    /// The sending end of `rx`, kept to mint wakers.
    tx: mpsc::Sender<Inbound>,
}

impl Drop for HubTransport {
    fn drop(&mut self) {
        let mut st = self.hub.lock();
        st.endpoints.remove(&self.host);
        for g in st.groups.values_mut() {
            g.remove(&self.host);
        }
    }
}

impl Transport for HubTransport {
    fn local_host(&self) -> HostId {
        self.host
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        self.hub.deliver(self.host, to, packet);
        Ok(())
    }

    fn send_multicast(&mut self, _scope: TtlScope, packet: &Packet) -> io::Result<()> {
        // The hub is one site; every scope reaches everyone.
        self.hub.multicast(self.host, packet);
        Ok(())
    }

    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        self.hub.deliver_batch(self.host, to, packets);
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        // A zero timeout takes only what is queued. The `Wake` it may
        // pop is harmless: the endpoint checks its commands every turn.
        match self.rx.recv_timeout(timeout) {
            Ok(Inbound::Packet(from, packet)) => Ok(Some((from, packet))),
            Ok(Inbound::Wake) | Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "hub closed"))
            }
        }
    }

    fn waker(&self) -> Option<Waker> {
        // A wake item on the channel the packets already arrive on, so
        // a wake can neither be lost nor overtake a packet queued
        // before it.
        let tx = self.tx.clone();
        Some(Waker::new(move || {
            // A closed channel means the transport is gone: nothing
            // left to wake.
            let _ = tx.send(Inbound::Wake);
        }))
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        self.hub
            .lock()
            .groups
            .entry(group)
            .or_default()
            .insert(self.host);
        Ok(())
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        if let Some(g) = self.hub.lock().groups.get_mut(&group) {
            g.remove(&self.host);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lbrm_wire::{EpochId, Seq, SourceId};

    const WAIT: Duration = Duration::from_secs(1);

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
    fn unicast_delivery() {
        let hub = Hub::new();
        let mut a = hub.attach(HostId(1));
        let mut b = hub.attach(HostId(2));
        a.send_unicast(HostId(2), &data(1)).unwrap();
        let (from, p) = b.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(from, HostId(1));
        assert_eq!(p, data(1));
    }

    #[test]
    fn multicast_fans_out_excluding_sender() {
        let hub = Hub::new();
        let mut a = hub.attach(HostId(1));
        let mut b = hub.attach(HostId(2));
        let mut c = hub.attach(HostId(3));
        a.join(GroupId(1)).unwrap();
        b.join(GroupId(1)).unwrap();
        c.join(GroupId(1)).unwrap();
        assert_eq!(hub.group_size(GroupId(1)), 3);
        a.send_multicast(TtlScope::Global, &data(7)).unwrap();
        assert_eq!(b.recv_timeout(WAIT).unwrap().unwrap().1, data(7));
        assert_eq!(c.recv_timeout(WAIT).unwrap().unwrap().1, data(7));
        // The sender itself receives nothing (checked by b/c being the
        // only queued packets).
        a.send_unicast(HostId(1), &data(8)).unwrap();
        let (_, p) = a.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(p, data(8));
    }

    #[test]
    fn bundled_unicast_preserves_order() {
        let hub = Hub::new();
        let mut a = hub.attach(HostId(1));
        let mut b = hub.attach(HostId(2));
        let run: Vec<Packet> = (1..=4).map(data).collect();
        a.send_unicast_bundle(HostId(2), &run).unwrap();
        for want in &run {
            let (from, p) = b.recv_timeout(WAIT).unwrap().unwrap();
            assert_eq!(from, HostId(1));
            assert_eq!(&p, want);
        }
    }

    #[test]
    fn leave_stops_multicast() {
        let hub = Hub::new();
        let mut a = hub.attach(HostId(1));
        let mut b = hub.attach(HostId(2));
        b.join(GroupId(1)).unwrap();
        b.leave(GroupId(1)).unwrap();
        a.send_multicast(TtlScope::Global, &data(1)).unwrap();
        a.send_unicast(HostId(2), &data(2)).unwrap();
        // Only the unicast arrives.
        let (_, p) = b.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(p, data(2));
    }

    #[test]
    fn detach_cleans_up() {
        let hub = Hub::new();
        let a = hub.attach(HostId(1));
        {
            let mut b = hub.attach(HostId(2));
            b.join(GroupId(1)).unwrap();
            assert_eq!(hub.group_size(GroupId(1)), 1);
        }
        assert_eq!(hub.group_size(GroupId(1)), 0);
        drop(a);
        // Host ids can be reused after detach.
        let _a2 = hub.attach(HostId(1));
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let hub = Hub::new();
        let _a = hub.attach(HostId(1));
        let _b = hub.attach(HostId(1));
    }
}
