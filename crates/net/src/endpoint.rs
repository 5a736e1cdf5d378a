//! The endpoint: one protocol machine's [`Driver`] + one transport + a
//! thread.
//!
//! The loop translates what the simulator's adapter translates, on a
//! real clock: arriving packets, passed deadlines and posted calls
//! become driver [`Input`]s, and the drained actions are executed on the
//! transport. Applications interact through an
//! [`EndpointHandle`]: closures posted with
//! [`call`](EndpointHandle::call) run against the machine inside the
//! loop (e.g. `Sender::send`), and deliveries / notices stream back as
//! [`EndpointEvent`]s. Dropping the handle shuts the endpoint down.
//!
//! The loop is event-driven: it sleeps in the transport's
//! `recv_timeout` until the machine's next deadline, and a posted
//! command or a dropped handle wakes it through the transport's
//! [`Waker`]. Only a transport without a waker is polled on a bounded
//! tick.
//!
//! A wait that returns a packet starts a drain pass: the loop takes
//! whatever else is already readable (a zero-timeout receive), up to a
//! bounded number of packets, and only then executes the machine's
//! actions. Replies to one host across the whole backlog — a logger
//! answering a window of NACKs — thus leave as one bundled run.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lbrm_core::machine::{Action, Actions, Call, Delivery, Driver, Input, Machine, Notice};
use lbrm_core::time::Time;
use lbrm_wire::{GroupId, Packet};

use crate::{Transport, Waker};

/// An application-visible protocol event.
#[derive(Debug, Clone, PartialEq)]
pub enum EndpointEvent {
    /// A data packet reached the application.
    Delivery(Delivery),
    /// A protocol notice (loss detected, freshness lost, promotion, ...).
    Notice(Notice),
}

enum Command<M> {
    /// Run a closure against the machine.
    Call(Call<M>),
    /// The handle is gone: exit.
    Shutdown,
}

/// Upper bound on one receive wait over a transport that has no
/// [`Waker`]: the only way such an endpoint notices a posted command.
const FALLBACK_WAIT: Duration = Duration::from_millis(10);

/// Most packets one loop turn takes off the transport before it sends,
/// runs timers and picks up commands: a flood delays those by at most
/// one pass.
const DRAIN_MAX: usize = 64;

/// Capacity of the event channel; events beyond it are shed and counted.
const EVENT_QUEUE: usize = 1024;

/// The application's handle to a running [`Endpoint`].
pub struct EndpointHandle<M> {
    cmd_tx: mpsc::Sender<Command<M>>,
    events: mpsc::Receiver<EndpointEvent>,
    waker: Option<Waker>,
    /// Set by the poster that sent a wake, cleared by the loop before
    /// it drains commands: a burst of calls costs one wake.
    wake_pending: Arc<AtomicBool>,
    events_dropped: Arc<AtomicU64>,
}

impl<M> EndpointHandle<M> {
    /// Queues `cmd` and makes sure the loop will come round for it.
    fn post(&self, cmd: Command<M>) -> io::Result<()> {
        self.cmd_tx
            .send(cmd)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "endpoint closed"))?;
        if let Some(waker) = &self.waker {
            // Both sides swap, so whichever comes later reads the
            // other's write and synchronizes with it. Reading `true`
            // here means the loop has yet to clear the flag, and the
            // drain that follows its clear sees the command queued
            // above; reading `false` means this poster must wake it.
            if !self.wake_pending.swap(true, Ordering::SeqCst) {
                waker.wake();
            }
        }
        Ok(())
    }

    /// Deliveries and notices shed so far because the application let
    /// the event queue fill up (the loop never blocks on a slow
    /// consumer).
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }
}

impl<M> Drop for EndpointHandle<M> {
    fn drop(&mut self) {
        // An explicit command, not just the channel closing: the wake
        // fires while `cmd_tx` is still alive, so a loop woken by it
        // would find the channel merely empty and go back to sleep.
        let _ = self.post(Command::Shutdown);
    }
}

impl<M: Machine> EndpointHandle<M> {
    /// Runs `f` against the machine inside the endpoint loop, as soon
    /// as the loop finishes what it is doing.
    ///
    /// # Errors
    ///
    /// When the endpoint has shut down.
    pub fn call(
        &self,
        f: impl FnOnce(&mut M, Time, &mut Actions) + Send + 'static,
    ) -> io::Result<()> {
        self.post(Command::Call(Box::new(f)))
    }

    /// Receives the next event, blocking; `None` after shutdown.
    pub fn event(&mut self) -> Option<EndpointEvent> {
        self.events.recv().ok()
    }

    /// Receives the next event within `timeout`; `None` on timeout or
    /// shutdown.
    pub fn event_timeout(&mut self, timeout: Duration) -> Option<EndpointEvent> {
        self.events.recv_timeout(timeout).ok()
    }
}

/// A protocol machine bound to a transport, ready to run.
pub struct Endpoint<M: Machine, T: Transport> {
    driver: Driver<M>,
    transport: T,
    cmd_rx: mpsc::Receiver<Command<M>>,
    event_tx: mpsc::SyncSender<EndpointEvent>,
    /// Longest single receive wait: unbounded when handles can wake
    /// the loop, [`FALLBACK_WAIT`] when they cannot.
    max_wait: Duration,
    wake_pending: Arc<AtomicBool>,
    events_dropped: Arc<AtomicU64>,
    origin: Option<Instant>,
    /// Reusable scratch for coalesced action runs.
    batch: Vec<Packet>,
}

impl<M: Machine + Send + 'static, T: Transport> Endpoint<M, T> {
    /// Pairs a machine with a transport; `groups` are joined at startup.
    pub fn new(machine: M, transport: T, groups: Vec<GroupId>) -> (Self, EndpointHandle<M>) {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (event_tx, events) = mpsc::sync_channel(EVENT_QUEUE);
        let waker = transport.waker();
        let wake_pending = Arc::new(AtomicBool::new(false));
        let events_dropped = Arc::new(AtomicU64::new(0));
        (
            Endpoint {
                driver: Driver::new(machine, groups),
                transport,
                cmd_rx,
                event_tx,
                max_wait: if waker.is_some() {
                    Duration::MAX
                } else {
                    FALLBACK_WAIT
                },
                wake_pending: Arc::clone(&wake_pending),
                events_dropped: Arc::clone(&events_dropped),
                origin: None,
                batch: Vec::new(),
            },
            EndpointHandle {
                cmd_tx,
                events,
                waker,
                wake_pending,
                events_dropped,
            },
        )
    }

    /// Attaches a protocol-event tracer to the machine (see
    /// `lbrm_core::trace`). Call before [`spawn`](Self::spawn) — e.g.
    /// with a live doctor sidecar's non-blocking sink.
    pub fn set_tracer(&mut self, tracer: lbrm_core::Tracer) {
        self.driver.machine_mut().set_tracer(tracer);
    }

    /// Pins the endpoint's time origin. Endpoints of one process that
    /// share an origin emit trace timestamps on a common clock, which
    /// is what lets a live doctor correlate recoveries *across*
    /// endpoint threads; without this each endpoint starts its clock
    /// when its thread happens to run.
    pub fn set_origin(&mut self, origin: Instant) {
        self.origin = Some(origin);
    }

    /// Runs the endpoint on a new thread; join the handle for the exit
    /// status.
    pub fn spawn(self) -> std::thread::JoinHandle<io::Result<()>> {
        std::thread::spawn(move || self.run())
    }

    /// Runs the endpoint until the handle is dropped or the transport
    /// fails.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors.
    pub fn run(mut self) -> io::Result<()> {
        let origin = self.origin.unwrap_or_else(Instant::now);
        let now_fn = |origin: Instant| {
            Time::from_nanos(Instant::now().duration_since(origin).as_nanos() as u64)
        };
        self.driver.input(now_fn(origin), Input::Start);
        self.execute()?;

        loop {
            // Clear the flag *before* draining: a command posted after
            // this point either is seen by the drain or sends a wake
            // that cuts the wait below short (see `EndpointHandle::post`).
            self.wake_pending.swap(false, Ordering::SeqCst);
            loop {
                match self.cmd_rx.try_recv() {
                    Ok(Command::Call(f)) => {
                        self.driver.input(now_fn(origin), Input::Call(f));
                        self.execute()?;
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Ok(Command::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => {
                        return Ok(());
                    }
                }
            }

            // Sleep until the machine's next deadline; with nothing
            // scheduled, until a packet or a wake.
            let wait = match self.driver.machine().next_deadline() {
                Some(t) => Duration::from_nanos(t.nanos().saturating_sub(now_fn(origin).nanos())),
                None => Duration::MAX,
            };
            let wait = wait.min(self.max_wait);
            if wait > Duration::ZERO {
                let mut next = self.transport.recv_timeout(wait)?;
                // Take the rest of the backlog before sending anything:
                // replies to one host then leave as one bundled run.
                let mut taken = 0;
                while let Some((from, packet)) = next.take() {
                    self.driver
                        .input(now_fn(origin), Input::Packet { from, packet });
                    taken += 1;
                    if taken < DRAIN_MAX {
                        next = self.transport.recv_timeout(Duration::ZERO)?;
                    }
                }
                self.execute()?;
            }
            self.driver.input(now_fn(origin), Input::Timer);
            self.execute()?;
        }
    }

    /// Executes the driver's drained actions, coalescing consecutive
    /// sends to one destination into bundle-capable runs. The machine's
    /// emission order is preserved exactly: a run only extends while
    /// the next action targets the same destination.
    fn execute(&mut self) -> io::Result<()> {
        // A slow or absent consumer must not wedge the protocol: when
        // the event queue is full the event is shed and counted.
        let emit = |event| {
            if let Err(mpsc::TrySendError::Full(_)) = self.event_tx.try_send(event) {
                self.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut iter = self.driver.drain().peekable();
        while let Some(action) = iter.next() {
            match action {
                Action::Unicast { to, packet } => {
                    self.batch.clear();
                    self.batch.push(packet);
                    while let Some(Action::Unicast { to: next, .. }) = iter.peek() {
                        if *next != to {
                            break;
                        }
                        let Some(Action::Unicast { packet, .. }) = iter.next() else {
                            unreachable!("peeked a unicast action");
                        };
                        self.batch.push(packet);
                    }
                    if self.batch.len() == 1 {
                        self.transport.send_unicast(to, &self.batch[0])?;
                    } else {
                        self.transport.send_unicast_bundle(to, &self.batch)?;
                    }
                }
                Action::Multicast { scope, packet } => {
                    self.batch.clear();
                    self.batch.push(packet);
                    while let Some(Action::Multicast { scope: next, .. }) = iter.peek() {
                        if *next != scope {
                            break;
                        }
                        let Some(Action::Multicast { packet, .. }) = iter.next() else {
                            unreachable!("peeked a multicast action");
                        };
                        self.batch.push(packet);
                    }
                    if self.batch.len() == 1 {
                        self.transport.send_multicast(scope, &self.batch[0])?;
                    } else {
                        self.transport.send_multicast_bundle(scope, &self.batch)?;
                    }
                }
                Action::Deliver(d) => emit(EndpointEvent::Delivery(d)),
                Action::Notice(n) => emit(EndpointEvent::Notice(n)),
                Action::Join(g) => self.transport.join(g)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{Hub, HubTransport};
    use crate::{GroupMap, LossyTransport, UdpTransport};
    use bytes::Bytes;
    use lbrm_core::logger::{Logger, LoggerConfig};
    use lbrm_core::receiver::{Receiver, ReceiverConfig};
    use lbrm_core::sender::{Sender, SenderConfig};
    use lbrm_wire::{HostId, Seq, SourceId, TtlScope};
    use std::net::Ipv4Addr;

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(1);
    const SRC_HOST: HostId = HostId(1);
    const LOG_HOST: HostId = HostId(2);
    const RX_HOST: HostId = HostId(3);

    struct Net {
        hub: Hub,
        sender: EndpointHandle<Sender>,
        _logger: EndpointHandle<Logger>,
        receiver: EndpointHandle<Receiver>,
    }

    fn spawn_net() -> Net {
        let hub = Hub::new();

        let (ep, sender) = Endpoint::new(
            Sender::new(SenderConfig::new(GROUP, SRC, SRC_HOST, LOG_HOST)),
            hub.attach(SRC_HOST),
            vec![],
        );
        ep.spawn();

        let (ep, logger) = Endpoint::new(
            Logger::new(LoggerConfig::primary(GROUP, SRC, LOG_HOST, SRC_HOST)),
            hub.attach(LOG_HOST),
            vec![GROUP],
        );
        ep.spawn();

        let (ep, receiver) = Endpoint::new(
            Receiver::new(ReceiverConfig::new(
                GROUP,
                SRC,
                RX_HOST,
                SRC_HOST,
                vec![LOG_HOST],
            )),
            hub.attach(RX_HOST),
            vec![GROUP],
        );
        ep.spawn();

        let net = Net {
            hub,
            sender,
            _logger: logger,
            receiver,
        };
        // Wait until the logger and receiver endpoints have joined the
        // group, so the first multicast reaches them.
        while net.hub.group_size(GROUP) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        net
    }

    fn publish(net: &Net, payload: &'static str) {
        net.sender
            .call(move |s: &mut Sender, now, out| {
                s.send(now, Bytes::from_static(payload.as_bytes()), out)
            })
            .unwrap();
    }

    fn next_delivery(net: &mut Net) -> Option<Delivery> {
        loop {
            match net.receiver.event_timeout(Duration::from_secs(5))? {
                EndpointEvent::Delivery(d) => return Some(d),
                EndpointEvent::Notice(_) => continue,
            }
        }
    }

    #[test]
    fn publish_and_deliver_over_hub() {
        let mut net = spawn_net();
        publish(&net, "hello multicast");
        let d = next_delivery(&mut net).expect("delivery");
        assert_eq!(d.seq, Seq(1));
        assert_eq!(d.payload.as_ref(), b"hello multicast");
        assert!(!d.recovered);
    }

    #[test]
    fn recovery_through_logger_after_partition() {
        let mut net = spawn_net();
        publish(&net, "one");
        assert_eq!(next_delivery(&mut net).unwrap().seq, Seq(1));

        // Partition the receiver while #2 goes out; the logger still
        // hears it.
        net.hub.set_partitioned(RX_HOST, true);
        publish(&net, "two");
        std::thread::sleep(Duration::from_millis(50));
        net.hub.set_partitioned(RX_HOST, false);

        // #3 reveals the gap; the receiver recovers #2 from the logger.
        publish(&net, "three");
        let mut got = Vec::new();
        while got.len() < 2 {
            let d = next_delivery(&mut net).expect("delivery");
            got.push((d.seq.raw(), d.recovered));
        }
        got.sort();
        assert_eq!(got[0], (2, true), "{got:?}");
        assert_eq!(got[1], (3, false));
    }

    /// A machine with nothing scheduled. Its endpoint sleeps until a
    /// packet or a wake arrives, so a test driving it cannot pass by
    /// riding a timer tick.
    struct Idle;

    impl Machine for Idle {
        fn on_packet(&mut self, _: Time, _: HostId, _: Packet, _: &mut Actions) {}
        fn poll(&mut self, _: Time, _: &mut Actions) {}
        fn next_deadline(&self) -> Option<Time> {
            None
        }
    }

    /// A transport that keeps the trait's default `waker()`, as an
    /// out-of-tree implementation written before wakers would.
    struct NoWaker(HubTransport);

    impl Transport for NoWaker {
        fn local_host(&self) -> HostId {
            self.0.local_host()
        }
        fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
            self.0.send_unicast(to, packet)
        }
        fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
            self.0.send_multicast(scope, packet)
        }
        fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
            self.0.recv_timeout(timeout)
        }
        fn join(&mut self, group: GroupId) -> io::Result<()> {
            self.0.join(group)
        }
        fn leave(&mut self, group: GroupId) -> io::Result<()> {
            self.0.leave(group)
        }
    }

    /// Posts `calls` commands 2 ms apart to an otherwise idle endpoint
    /// over `transport`; returns the posted→run delays, sorted.
    fn pickup_delays<T: Transport>(transport: T, calls: usize) -> Vec<Duration> {
        let (ep, handle) = Endpoint::new(Idle, transport, vec![]);
        let task = ep.spawn();
        let (ran_tx, ran_rx) = mpsc::channel();
        let mut delays = Vec::with_capacity(calls);
        for _ in 0..calls {
            std::thread::sleep(Duration::from_millis(2));
            let ran_tx = ran_tx.clone();
            let posted = Instant::now();
            handle
                .call(move |_: &mut Idle, _, _| {
                    let _ = ran_tx.send(Instant::now());
                })
                .unwrap();
            let ran = ran_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a posted command must run");
            delays.push(ran.duration_since(posted));
        }
        drop(handle);
        assert!(matches!(task.join(), Ok(Ok(()))));
        delays.sort();
        delays
    }

    fn assert_prompt_pickup<T: Transport>(transport: T) {
        let delays = pickup_delays(transport, 200);
        let median = delays[delays.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "a posted command must wake the loop, not wait for a tick: median {median:?}"
        );
    }

    #[test]
    fn command_pickup_is_prompt_over_hub() {
        assert_prompt_pickup(Hub::new().attach(SRC_HOST));
    }

    #[test]
    fn command_pickup_is_prompt_over_udp() {
        let bind = || UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        assert_prompt_pickup(bind());
        assert_prompt_pickup(LossyTransport::new(bind(), 0.5, 7));
    }

    /// A transport that does not override `waker()` still works: its
    /// endpoint polls for commands on the bounded fallback tick.
    #[test]
    fn transport_without_waker_falls_back_to_the_tick() {
        let delays = pickup_delays(NoWaker(Hub::new().attach(SRC_HOST)), 20);
        let worst = delays[delays.len() - 1];
        assert!(
            worst < FALLBACK_WAIT + Duration::from_millis(50),
            "pickup must stay within the fallback wait: worst {worst:?}"
        );
    }

    /// A machine whose only deadline is armed by a posted call; when it
    /// passes, `poll` raises one notice.
    struct Alarm(Option<Time>);

    impl Machine for Alarm {
        fn on_packet(&mut self, _: Time, _: HostId, _: Packet, _: &mut Actions) {}
        fn poll(&mut self, now: Time, out: &mut Actions) {
            if self.0.is_some_and(|due| now >= due) {
                self.0 = None;
                out.push(Action::Notice(Notice::FreshnessLost));
            }
        }
        fn next_deadline(&self) -> Option<Time> {
            self.0
        }
    }

    /// A 2 ms deadline on an otherwise idle endpoint: the deadline, not
    /// a tick, must end the wait — and over UDP, where it is a `ppoll`
    /// timeout, rounded to milliseconds or dropped, the median would
    /// show it.
    fn assert_deadline_ends_the_wait<T: Transport>(transport: T) {
        const DELAY: Duration = Duration::from_millis(2);
        let (ep, mut handle) = Endpoint::new(Alarm(None), transport, vec![]);
        ep.spawn();
        let mut delays = Vec::new();
        for _ in 0..20 {
            let posted = Instant::now();
            handle
                .call(|m: &mut Alarm, now, _| m.0 = Some(now + DELAY))
                .unwrap();
            let fired = handle.event_timeout(Duration::from_secs(5));
            assert_eq!(fired, Some(EndpointEvent::Notice(Notice::FreshnessLost)));
            delays.push(posted.elapsed());
        }
        delays.sort();
        let median = delays[delays.len() / 2];
        assert!(delays[0] >= DELAY, "slept until the deadline: {delays:?}");
        assert!(
            median <= DELAY + Duration::from_millis(5),
            "woke when the deadline passed: median {median:?}"
        );
    }

    #[test]
    fn machine_deadline_ends_an_idle_wait() {
        assert_deadline_ends_the_wait(Hub::new().attach(SRC_HOST));
        let udp = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        assert_deadline_ends_the_wait(udp);
    }

    /// [`Alarm`] that spends a fixed 10 µs on every packet it receives,
    /// so a flooder easily keeps its backlog from running dry; `seen`
    /// counts the packets.
    struct Busy {
        alarm: Alarm,
        seen: Arc<AtomicU64>,
    }

    impl Machine for Busy {
        fn on_packet(&mut self, _: Time, _: HostId, _: Packet, _: &mut Actions) {
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(10) {
                std::hint::spin_loop();
            }
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
        fn poll(&mut self, now: Time, out: &mut Actions) {
            self.alarm.poll(now, out);
        }
        fn next_deadline(&self) -> Option<Time> {
            self.alarm.next_deadline()
        }
    }

    /// While a thread floods the endpoint over `transport` through
    /// `flooder`, posted calls are still picked up and a 2 ms machine
    /// deadline still fires on time: the drain pass is bounded by
    /// [`DRAIN_MAX`]. The flooder sends 32-packet bundles and keeps 256
    /// packets outstanding, so the backlog never runs dry (an unbounded
    /// drain never ends) while the flooder itself stays nearly idle.
    fn assert_flood_cannot_starve<T: Transport, F: Transport>(transport: T, mut flooder: F) {
        const DELAY: Duration = Duration::from_millis(2);
        const OUTSTANDING: u64 = 256;
        let to = transport.local_host();
        let seen = Arc::new(AtomicU64::new(0));
        let busy = Busy {
            alarm: Alarm(None),
            seen: Arc::clone(&seen),
        };
        let (ep, mut handle) = Endpoint::new(busy, transport, vec![]);
        let task = ep.spawn();
        let stop = Arc::new(AtomicBool::new(false));
        let flooder = {
            let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
            let run = vec![
                Packet::Data {
                    group: GROUP,
                    source: SRC,
                    seq: Seq(1),
                    epoch: lbrm_wire::EpochId(0),
                    payload: Bytes::from_static(b"flood"),
                };
                32
            ];
            std::thread::spawn(move || {
                let mut sent = 0;
                while !stop.load(Ordering::Relaxed) {
                    if sent - seen.load(Ordering::Relaxed) < OUTSTANDING {
                        flooder.send_unicast_bundle(to, &run).unwrap();
                        sent += run.len() as u64;
                    } else {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            })
        };
        let flood_reached = Instant::now() + Duration::from_secs(5);
        while seen.load(Ordering::Relaxed) < OUTSTANDING {
            assert!(Instant::now() < flood_reached, "the flood never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }

        let before = seen.load(Ordering::Relaxed);
        let (mut pickups, mut lateness) = (Vec::new(), Vec::new());
        for _ in 0..20 {
            let (ran_tx, ran_rx) = mpsc::channel();
            let posted = Instant::now();
            handle
                .call(move |m: &mut Busy, now, _| {
                    m.alarm.0 = Some(now + DELAY);
                    let _ = ran_tx.send(Instant::now());
                })
                .unwrap();
            let ran = ran_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a posted command must run under a flood");
            let fired = handle.event_timeout(Duration::from_secs(5));
            assert_eq!(fired, Some(EndpointEvent::Notice(Notice::FreshnessLost)));
            pickups.push(ran.duration_since(posted));
            lateness.push(ran.elapsed().saturating_sub(DELAY));
        }
        assert!(
            seen.load(Ordering::Relaxed) > before + OUTSTANDING,
            "the flood must last the whole measurement"
        );
        stop.store(true, Ordering::Relaxed);
        flooder.join().unwrap();
        drop(handle);
        assert!(matches!(task.join(), Ok(Ok(()))));

        pickups.sort();
        lateness.sort();
        let (pickup, late) = (pickups[pickups.len() / 2], lateness[lateness.len() / 2]);
        assert!(
            pickup < Duration::from_millis(5),
            "median pickup {pickup:?}: {pickups:?}"
        );
        assert!(
            late <= Duration::from_millis(5),
            "median deadline overrun {late:?}: {lateness:?}"
        );
    }

    #[test]
    fn a_flood_cannot_starve_commands_or_deadlines() {
        let hub = Hub::new();
        assert_flood_cannot_starve(hub.attach(RX_HOST), hub.attach(SRC_HOST));
        let bind = || UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::default()).unwrap();
        assert_flood_cannot_starve(bind(), bind());
    }

    /// Events the application does not drain are shed, never block the
    /// loop, and are counted.
    #[test]
    fn full_event_queue_sheds_and_counts() {
        const EXTRA: usize = 6;
        let (ep, handle) = Endpoint::new(Idle, Hub::new().attach(RX_HOST), vec![]);
        ep.spawn();
        handle
            .call(|_: &mut Idle, _, out| {
                out.extend((0..EVENT_QUEUE + EXTRA).map(|_| Action::Notice(Notice::FreshnessLost)))
            })
            .unwrap();
        // Commands run in order, each followed by its actions: once
        // this one ran, every notice above was queued or shed.
        let (ran_tx, ran_rx) = mpsc::channel();
        handle
            .call(move |_: &mut Idle, _, _| {
                let _ = ran_tx.send(());
            })
            .unwrap();
        ran_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(handle.events_dropped(), EXTRA as u64);
    }

    #[test]
    fn handle_drop_shuts_endpoint_down() {
        // No deadline, no traffic: only the drop itself can wake it.
        let (ep, handle) = Endpoint::new(Idle, Hub::new().attach(RX_HOST), vec![GROUP]);
        let task = ep.spawn();
        std::thread::sleep(Duration::from_millis(20));
        drop(handle);
        let deadline = Instant::now() + Duration::from_millis(100);
        while !task.is_finished() {
            assert!(
                Instant::now() < deadline,
                "endpoint must exit after handle drop"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            matches!(task.join(), Ok(Ok(()))),
            "endpoint must exit cleanly"
        );
    }
}
