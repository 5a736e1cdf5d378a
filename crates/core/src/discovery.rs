//! Expanding-ring logger discovery (§2.2.1).
//!
//! "Each host uses a series of scoped multicast discovery queries to
//! locate a nearby logging service." The client multicasts a
//! [`Packet::DiscoveryQuery`] at site scope, collects replies for a short
//! window, and widens to region then global scope if nothing answers.
//! The first reply at the narrowest answering scope is the nearest
//! logger; ties within the window are broken toward the lower hierarchy
//! level only when the first reply is a primary and a secondary also
//! answered (local recovery is the point of the exercise).

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

use crate::machine::{Action, Actions, Machine, Notice};
use crate::time::Time;

/// How long to collect replies at each scope.
const SCOPE_WAIT: Duration = Duration::from_millis(200);

/// Discovery client configuration.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Group whose logging service is sought.
    pub group: GroupId,
    /// This host.
    pub host: HostId,
    /// Queries per scope before widening.
    pub attempts_per_scope: u32,
    /// Re-run the whole search after failure (`None` = give up).
    pub retry_after: Option<Duration>,
    /// Determinism seed for nonces.
    pub seed: u64,
}

impl DiscoveryConfig {
    /// A conventional configuration.
    pub fn new(group: GroupId, host: HostId) -> Self {
        DiscoveryConfig {
            group,
            host,
            attempts_per_scope: 2,
            retry_after: None,
            seed: host.raw(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Searching at `scope`, attempt number `attempt`, until `deadline`.
    Searching {
        scope: TtlScope,
        attempt: u32,
        deadline: Time,
    },
    Done,
    Failed,
}

/// The discovery client state machine.
#[derive(Clone)]
pub struct DiscoveryClient {
    config: DiscoveryConfig,
    rng: SmallRng,
    phase: Phase,
    nonce: u64,
    /// Replies collected in the current window: (logger, level), arrival
    /// order preserved.
    replies: Vec<(HostId, u8)>,
    result: Option<(HostId, u8, TtlScope)>,
    retry_at: Option<Time>,
}

impl DiscoveryClient {
    /// Creates a client; the search starts at
    /// [`Machine::on_start`].
    pub fn new(config: DiscoveryConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        DiscoveryClient {
            config,
            rng,
            phase: Phase::Idle,
            nonce: 0,
            replies: Vec::new(),
            result: None,
            retry_at: None,
        }
    }

    /// The discovered logger, once found.
    pub fn result(&self) -> Option<(HostId, u8, TtlScope)> {
        self.result
    }

    /// `true` once the search ended (found or failed).
    pub fn finished(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Failed)
    }

    fn query(&mut self, now: Time, scope: TtlScope, attempt: u32, out: &mut Actions) {
        self.nonce = self.rng.random();
        self.replies.clear();
        self.phase = Phase::Searching {
            scope,
            attempt,
            deadline: now + SCOPE_WAIT,
        };
        out.push(Action::Multicast {
            scope,
            packet: Packet::DiscoveryQuery {
                group: self.config.group,
                nonce: self.nonce,
                requester: self.config.host,
            },
        });
    }

    fn conclude_window(&mut self, now: Time, out: &mut Actions) {
        let Phase::Searching { scope, attempt, .. } = self.phase else {
            return;
        };
        if !self.replies.is_empty() {
            // Nearest = first to answer; but prefer a secondary over a
            // primary that happened to answer marginally earlier, so
            // site-local recovery wins.
            let (mut logger, mut level) = self.replies[0];
            if level == 0 {
                if let Some(&(l, lv)) = self.replies.iter().find(|(_, lv)| *lv > 0) {
                    logger = l;
                    level = lv;
                }
            }
            self.result = Some((logger, level, scope));
            self.phase = Phase::Done;
            out.push(Action::Notice(Notice::LoggerDiscovered {
                logger,
                level,
                scope,
            }));
            return;
        }
        if attempt + 1 < self.config.attempts_per_scope {
            self.query(now, scope, attempt + 1, out);
        } else if let Some(wider) = scope.widen() {
            self.query(now, wider, 0, out);
        } else {
            self.phase = Phase::Failed;
            out.push(Action::Notice(Notice::DiscoveryFailed));
            if let Some(after) = self.config.retry_after {
                self.retry_at = Some(now + after);
            }
        }
    }
}

impl Machine for DiscoveryClient {
    fn on_start(&mut self, now: Time, out: &mut Actions) {
        if self.phase == Phase::Idle {
            self.query(now, TtlScope::Site, 0, out);
        }
    }

    fn on_packet(&mut self, _now: Time, _from: HostId, packet: Packet, out: &mut Actions) {
        let _ = out;
        if let Packet::DiscoveryReply {
            group,
            nonce,
            logger,
            level,
        } = packet
        {
            if group == self.config.group
                && nonce == self.nonce
                && matches!(self.phase, Phase::Searching { .. })
            {
                self.replies.push((logger, level));
            }
        }
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        match self.phase {
            Phase::Searching { deadline, .. } if now >= deadline => {
                self.conclude_window(now, out);
            }
            Phase::Failed => {
                if let Some(at) = self.retry_at {
                    if now >= at {
                        self.retry_at = None;
                        self.query(now, TtlScope::Site, 0, out);
                    }
                }
            }
            _ => {}
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        match self.phase {
            Phase::Searching { deadline, .. } => Some(deadline),
            Phase::Failed => self.retry_at,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::notices;

    const GROUP: GroupId = GroupId(1);
    const ME: HostId = HostId(1);

    fn reply(client: &DiscoveryClient, logger: u64, level: u8) -> Packet {
        Packet::DiscoveryReply {
            group: GROUP,
            nonce: client.nonce,
            logger: HostId(logger),
            level,
        }
    }

    fn client() -> DiscoveryClient {
        DiscoveryClient::new(DiscoveryConfig::new(GROUP, ME))
    }

    #[test]
    fn finds_site_logger_first() {
        let mut c = client();
        let mut out = Actions::new();
        c.on_start(Time::ZERO, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Multicast {
                scope: TtlScope::Site,
                packet: Packet::DiscoveryQuery { .. }
            }]
        ));
        let r = reply(&c, 50, 1);
        c.on_packet(Time::from_millis(5), HostId(50), r, &mut out);
        out.clear();
        c.poll(c.next_deadline().unwrap(), &mut out);
        assert_eq!(c.result(), Some((HostId(50), 1, TtlScope::Site)));
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LoggerDiscovered { logger, level: 1, scope: TtlScope::Site }
                if *logger == HostId(50)
        )));
    }

    #[test]
    fn widens_scope_when_silent() {
        let mut c = client();
        let mut out = Actions::new();
        c.on_start(Time::ZERO, &mut out);
        let mut scopes = vec![TtlScope::Site];
        // Exhaust attempts: 2 per scope × 3 scopes.
        for _ in 0..6 {
            let Some(d) = c.next_deadline() else { break };
            out.clear();
            c.poll(d, &mut out);
            for a in &out {
                if let Action::Multicast { scope, .. } = a {
                    scopes.push(*scope);
                }
            }
        }
        assert_eq!(
            scopes,
            vec![
                TtlScope::Site,
                TtlScope::Site,
                TtlScope::Region,
                TtlScope::Region,
                TtlScope::Global,
                TtlScope::Global
            ]
        );
        assert!(c.finished());
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::DiscoveryFailed)));
    }

    #[test]
    fn prefers_secondary_over_primary_in_same_window() {
        let mut c = client();
        let mut out = Actions::new();
        c.on_start(Time::ZERO, &mut out);
        let r0 = reply(&c, 9, 0);
        let r1 = reply(&c, 50, 1);
        c.on_packet(Time::from_millis(1), HostId(9), r0, &mut out);
        c.on_packet(Time::from_millis(2), HostId(50), r1, &mut out);
        out.clear();
        c.poll(c.next_deadline().unwrap(), &mut out);
        assert_eq!(c.result().unwrap().0, HostId(50));
    }

    #[test]
    fn stale_nonce_ignored() {
        let mut c = client();
        let mut out = Actions::new();
        c.on_start(Time::ZERO, &mut out);
        let stale = Packet::DiscoveryReply {
            group: GROUP,
            nonce: c.nonce.wrapping_add(1),
            logger: HostId(66),
            level: 1,
        };
        c.on_packet(Time::from_millis(1), HostId(66), stale, &mut out);
        out.clear();
        c.poll(c.next_deadline().unwrap(), &mut out);
        // Window concluded with no valid replies → second site attempt.
        assert!(c.result().is_none());
        assert!(matches!(
            &out[..],
            [Action::Multicast {
                scope: TtlScope::Site,
                ..
            }]
        ));
    }

    #[test]
    fn retry_after_failure() {
        let mut cfg = DiscoveryConfig::new(GROUP, ME);
        cfg.retry_after = Some(Duration::from_secs(5));
        cfg.attempts_per_scope = 1;
        let mut c = DiscoveryClient::new(cfg);
        let mut out = Actions::new();
        c.on_start(Time::ZERO, &mut out);
        for _ in 0..3 {
            let d = c.next_deadline().unwrap();
            out.clear();
            c.poll(d, &mut out);
        }
        assert!(matches!(c.phase, Phase::Failed));
        let retry = c.next_deadline().unwrap();
        out.clear();
        c.poll(retry, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Multicast {
                scope: TtlScope::Site,
                ..
            }]
        ));
    }
}
