//! The sender-side statistical acknowledgement engine (§2.3).
//!
//! The source divides its transmission into *epochs*. At each epoch
//! boundary it multicasts an Acker Selection Packet carrying `p_ack =
//! k / N_sl`; each secondary logger volunteers as a *Designated Acker*
//! with that probability and then unicasts an ACK for every data packet
//! of the epoch it receives. Knowing exactly how many ACKs to expect, the
//! source can distinguish isolated loss (serve retransmission requests by
//! unicast) from widespread loss (re-multicast immediately) within one
//! `t_wait` of sending — preventing NACK implosion in the common case of
//! loss on its own outgoing tail circuit (§2.3.4).
//!
//! This module is the bookkeeping core; [`crate::sender::Sender`] turns
//! its outputs into packets.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use lbrm_wire::{EpochId, HostId, Seq};

use crate::estimate::{BolotConfig, BolotProbe, NslEstimator, ProbeStatus};
use crate::gaps::SeqUnwrapper;
use crate::time::{earliest, Time};

/// EWMA gain for the `N_sl` tracker (paper: 1/8).
const NSL_ALPHA: f64 = 0.125;

/// Initial `t_wait` (the ACK collection window).
const T_WAIT_INIT: Duration = Duration::from_millis(200);

/// Gain of the exponentially-converging `t_wait` estimator (§2.3.2).
const T_WAIT_ALPHA: f64 = 0.25;

/// How long to collect volunteers before activating a new epoch, as a
/// multiple of `t_wait` ("long enough to include ACKs from all but the
/// most highly delayed members").
const SELECT_WAIT_FACTOR: f64 = 2.0;

/// Cap on re-multicasts of one packet (missing ACKs can also mean a
/// crashed acker; "such events are rare, and their effects are limited
/// to the current epoch").
const MAX_REMULTICASTS: u32 = 2;

/// ACKs from hosts outside the Designated set before the host is
/// black-listed as faulty (§2.3.3's "hotlist").
const HOTLIST_THRESHOLD: u32 = 3;

/// Re-multicast when the estimated number of sites represented by
/// missing ACKs reaches this value (§2.3.2's "significant number of
/// sites").
const REMULTICAST_SITE_THRESHOLD: f64 = 2.0;

/// Configuration of the statistical-acknowledgement engine.
#[derive(Debug, Clone)]
pub struct StatAckConfig {
    /// Desired ACKs per data packet; "analysis suggests that between 5
    /// and 20 ACKs is appropriate" (§2.3.1).
    pub k: usize,
    /// Initial secondary-logger count estimate (seeded by Bolot probing
    /// or prior knowledge).
    pub nsl_initial: f64,
    /// How often to re-select Designated Ackers.
    pub epoch_interval: Duration,
    /// Bolot-style initial group-size probing (§2.3.3): selection rounds
    /// double as probes with escalating probability until the `N_sl`
    /// estimate is confident, then normal epochs take over. `None`
    /// trusts [`nsl_initial`](Self::nsl_initial).
    pub initial_probe: Option<BolotConfig>,
}

impl Default for StatAckConfig {
    fn default() -> Self {
        StatAckConfig {
            k: 10,
            nsl_initial: 50.0,
            epoch_interval: Duration::from_secs(60),
            initial_probe: None,
        }
    }
}

/// Semantic outputs of the engine; the sender turns these into packets
/// and notices.
#[derive(Debug, Clone, PartialEq)]
pub enum StatAckOutput {
    /// Multicast an Acker Selection Packet for `epoch` with `p_ack`.
    StartSelection {
        /// The new epoch id.
        epoch: EpochId,
        /// Volunteer probability to advertise.
        p_ack: f64,
    },
    /// The pending epoch became active: newly sent data carries it.
    EpochActive {
        /// The active epoch.
        epoch: EpochId,
        /// Number of Designated Ackers.
        ackers: usize,
        /// Current `N_sl` estimate.
        nsl: f64,
    },
    /// Missing ACK coverage at `t_wait`: re-multicast `seq` immediately.
    Remulticast {
        /// Sequence to re-send.
        seq: Seq,
        /// Missing ACK count at the deadline.
        missing: usize,
    },
    /// ACK bookkeeping for `seq` closed (all ACKs in, or written off at
    /// `2 × t_wait`).
    Settled {
        /// The settled sequence.
        seq: Seq,
        /// `true` if every expected ACK arrived.
        complete: bool,
    },
}

#[derive(Debug, Clone)]
struct Track {
    seq: Seq,
    epoch: EpochId,
    sent_at: Time,
    acked_by: BTreeSet<HostId>,
    expected: usize,
    decide_at: Time,
    closes_at: Time,
    decided: bool,
    remulticasts: u32,
}

/// The engine. One instance per (group, source) stream.
#[derive(Debug, Clone)]
pub struct StatAck {
    config: StatAckConfig,
    nsl: NslEstimator,
    t_wait: Duration,
    /// Epoch whose ackers currently acknowledge new data.
    epoch: EpochId,
    ackers: BTreeSet<HostId>,
    /// A selection in progress: (epoch, advertised p, volunteers, switch time).
    pending: Option<(EpochId, f64, BTreeSet<HostId>, Time)>,
    next_selection_at: Time,
    unwrapper: SeqUnwrapper,
    outstanding: BTreeMap<u64, Track>,
    /// Per-epoch acker sets still accepting late ACKs (current + previous).
    epoch_ackers: BTreeMap<EpochId, BTreeSet<HostId>>,
    bogus_acks: BTreeMap<HostId, u32>,
    blacklist: BTreeSet<HostId>,
    /// Bolot probing phase; `None` once the estimate is confident.
    probe: Option<BolotProbe>,
}

impl StatAck {
    /// Creates an engine; the first Acker Selection is emitted at the
    /// first [`poll`](Self::poll) at or after `start`.
    pub fn new(config: StatAckConfig, start: Time) -> Self {
        assert!(config.k >= 1, "k must be at least 1");
        let nsl = NslEstimator::new(config.nsl_initial.max(1.0), NSL_ALPHA);
        StatAck {
            t_wait: T_WAIT_INIT,
            nsl,
            epoch: EpochId::INITIAL,
            ackers: BTreeSet::new(),
            pending: None,
            next_selection_at: start,
            unwrapper: SeqUnwrapper::new(),
            outstanding: BTreeMap::new(),
            epoch_ackers: BTreeMap::new(),
            bogus_acks: BTreeMap::new(),
            blacklist: BTreeSet::new(),
            probe: config.initial_probe.map(BolotProbe::new),
            config,
        }
    }

    /// `true` while the initial Bolot probing phase is still running.
    pub fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// The epoch newly sent data packets should carry.
    pub fn current_epoch(&self) -> EpochId {
        self.epoch
    }

    /// Number of Designated Ackers in the active epoch.
    pub fn acker_count(&self) -> usize {
        self.ackers.len()
    }

    /// Current `N_sl` estimate.
    pub fn nsl_estimate(&self) -> f64 {
        self.nsl.estimate()
    }

    /// Current ACK-collection window.
    pub fn t_wait(&self) -> Duration {
        self.t_wait
    }

    /// Hosts black-listed for acking when not selected.
    pub fn blacklist(&self) -> &BTreeSet<HostId> {
        &self.blacklist
    }

    /// Records a freshly transmitted data packet.
    pub fn on_data_sent(&mut self, now: Time, seq: Seq) {
        let idx = self.unwrapper.unwrap(seq);
        let expected = self.ackers.len();
        self.outstanding.insert(
            idx,
            Track {
                seq,
                epoch: self.epoch,
                sent_at: now,
                acked_by: BTreeSet::new(),
                expected,
                decide_at: now + self.t_wait,
                closes_at: now + 2 * self.t_wait,
                decided: expected == 0, // nothing to decide without ackers
                remulticasts: 0,
            },
        );
    }

    /// Records a volunteer for `epoch`.
    pub fn on_volunteer(&mut self, host: HostId, epoch: EpochId) {
        if self.blacklist.contains(&host) {
            return;
        }
        if let Some((e, _, volunteers, _)) = &mut self.pending {
            if *e == epoch {
                volunteers.insert(host);
            }
        }
    }

    /// Records a per-packet ACK.
    pub fn on_ack(
        &mut self,
        now: Time,
        host: HostId,
        epoch: EpochId,
        seq: Seq,
        out: &mut Vec<StatAckOutput>,
    ) {
        if self.blacklist.contains(&host) {
            return;
        }
        // Only the two most recent epochs' acker sets are retained. An ACK
        // for an epoch we no longer track is a *stale* ACK from a slow but
        // legitimate Designated Acker (its epoch aged out while the ACK was
        // in flight), not evidence of a faulty host — drop it without
        // feeding the hotlist. §2.3.3's hotlist is only for hosts acking an
        // epoch they verifiably were not selected for.
        let Some(selected) = self.epoch_ackers.get(&epoch) else {
            return;
        };
        if !selected.contains(&host) {
            let n = self.bogus_acks.entry(host).or_insert(0);
            *n += 1;
            if *n >= HOTLIST_THRESHOLD {
                self.blacklist.insert(host);
            }
            return;
        }
        let idx = self.unwrapper.peek(seq);
        let Some(track) = self.outstanding.get_mut(&idx) else {
            return;
        };
        if track.epoch != epoch {
            return;
        }
        track.acked_by.insert(host);
        if track.acked_by.len() >= track.expected {
            // Last expected ACK: feed the t_wait estimator (§2.3.2).
            // Karn's rule: once a packet has been re-multicast, `now -
            // sent_at` is ambiguous (the ACK may answer either copy) and
            // always spans at least one extra t_wait window, so retried
            // packets contribute no sample.
            if track.remulticasts == 0 {
                let rtt = now.since(track.sent_at);
                self.t_wait = Duration::from_secs_f64(
                    T_WAIT_ALPHA * rtt.as_secs_f64()
                        + (1.0 - T_WAIT_ALPHA) * self.t_wait.as_secs_f64(),
                );
            }
            let seq = track.seq;
            self.outstanding.remove(&idx);
            out.push(StatAckOutput::Settled {
                seq,
                complete: true,
            });
        }
    }

    /// Next instant at which [`poll`](Self::poll) has work.
    pub fn next_deadline(&self) -> Option<Time> {
        let mut d = Some(self.next_selection_at);
        if let Some((_, _, _, switch_at)) = &self.pending {
            d = earliest(d, Some(*switch_at));
        }
        for t in self.outstanding.values() {
            if !t.decided {
                d = earliest(d, Some(t.decide_at));
            }
            d = earliest(d, Some(t.closes_at));
        }
        d
    }

    /// Runs due work: epoch management and per-packet ACK deadlines.
    pub fn poll(&mut self, now: Time, out: &mut Vec<StatAckOutput>) {
        // Activate a matured selection.
        let matured = self
            .pending
            .take_if(|&mut (.., switch_at)| now >= switch_at);
        if let Some((epoch, p, volunteers, _)) = matured {
            let quick_retry = (4 * self.t_wait)
                .max(Duration::from_millis(500))
                .min(self.config.epoch_interval);
            if let Some(probe) = &mut self.probe {
                // Probing phase (§2.3.3): this selection's response
                // count is a Bolot probe sample.
                match probe.record_round(volunteers.len() as u64) {
                    ProbeStatus::Done(estimate) => {
                        self.nsl = NslEstimator::new(estimate.max(1.0), NSL_ALPHA);
                        self.probe = None;
                    }
                    ProbeStatus::Escalated | ProbeStatus::NeedMoreRounds => {
                        self.next_selection_at = self.next_selection_at.min(now + quick_retry);
                    }
                }
            } else if volunteers.is_empty() {
                // Nobody volunteered (e.g. the group is still
                // forming): an ackerless epoch detects nothing, so
                // retry selection soon rather than idling a full
                // epoch interval.
                self.next_selection_at = self.next_selection_at.min(now + quick_retry);
            } else {
                self.nsl.update(volunteers.len(), p);
            }
            self.ackers = volunteers.clone();
            self.epoch = epoch;
            self.epoch_ackers.insert(epoch, volunteers);
            // Keep only the two most recent epochs' acker sets.
            let keep_prev = EpochId(epoch.raw().wrapping_sub(1));
            self.epoch_ackers
                .retain(|e, _| *e == epoch || *e == keep_prev);
            out.push(StatAckOutput::EpochActive {
                epoch,
                ackers: self.ackers.len(),
                nsl: self.nsl.estimate(),
            });
        }
        // Start a new selection.
        if self.pending.is_none() && now >= self.next_selection_at {
            let epoch = self.epoch.next();
            let p = match &self.probe {
                Some(probe) => probe.current_p(),
                None => self.nsl.p_ack_for(self.config.k),
            };
            let wait = Duration::from_secs_f64(self.t_wait.as_secs_f64() * SELECT_WAIT_FACTOR);
            self.pending = Some((epoch, p, BTreeSet::new(), now + wait));
            self.next_selection_at = now + self.config.epoch_interval;
            out.push(StatAckOutput::StartSelection { epoch, p_ack: p });
        }
        // Per-packet deadlines.
        let idxs: Vec<u64> = self.outstanding.keys().copied().collect();
        for idx in idxs {
            let Some(track) = self.outstanding.get_mut(&idx) else {
                continue;
            };
            if !track.decided && now >= track.decide_at {
                track.decided = true;
                let missing = track.expected.saturating_sub(track.acked_by.len());
                if missing > 0 {
                    let sites_per_acker =
                        (self.nsl.estimate() / track.expected.max(1) as f64).max(1.0);
                    let missing_sites = missing as f64 * sites_per_acker;
                    if missing_sites >= REMULTICAST_SITE_THRESHOLD
                        && track.remulticasts < MAX_REMULTICASTS
                    {
                        track.remulticasts += 1;
                        track.decided = false;
                        track.decide_at = now + self.t_wait;
                        track.closes_at = now + 2 * self.t_wait;
                        out.push(StatAckOutput::Remulticast {
                            seq: track.seq,
                            missing,
                        });
                    }
                }
            }
            let Some(track) = self.outstanding.get(&idx) else {
                continue;
            };
            if now >= track.closes_at {
                let complete = track.acked_by.len() >= track.expected;
                let seq = track.seq;
                self.outstanding.remove(&idx);
                out.push(StatAckOutput::Settled { seq, complete });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Time = Time::ZERO;

    fn engine(k: usize, nsl: f64) -> StatAck {
        StatAck::new(
            StatAckConfig {
                k,
                nsl_initial: nsl,
                ..StatAckConfig::default()
            },
            T0,
        )
    }

    /// Drives selection to completion with `volunteers` volunteering.
    fn activate_epoch(e: &mut StatAck, volunteers: &[HostId], mut now: Time) -> (EpochId, Time) {
        let mut out = Vec::new();
        e.poll(now, &mut out);
        let epoch = match out.as_slice() {
            [StatAckOutput::StartSelection { epoch, p_ack }] => {
                assert!(*p_ack > 0.0 && *p_ack <= 1.0);
                *epoch
            }
            other => panic!("expected StartSelection, got {other:?}"),
        };
        for &v in volunteers {
            e.on_volunteer(v, epoch);
        }
        now = e.next_deadline().unwrap();
        let mut out = Vec::new();
        e.poll(now, &mut out);
        assert!(
            out.iter().any(
                |o| matches!(o, StatAckOutput::EpochActive { epoch: ep, ackers, .. }
                if *ep == epoch && *ackers == volunteers.len())
            ),
            "no EpochActive in {out:?}"
        );
        (epoch, now)
    }

    #[test]
    fn selection_lifecycle() {
        let mut e = engine(3, 30.0);
        let ackers = [HostId(1), HostId(2), HostId(3)];
        let (epoch, _) = activate_epoch(&mut e, &ackers, T0);
        assert_eq!(e.current_epoch(), epoch);
        assert_eq!(e.acker_count(), 3);
    }

    #[test]
    fn complete_acks_settle_and_update_t_wait() {
        let mut e = engine(2, 20.0);
        let ackers = [HostId(1), HostId(2)];
        let (epoch, now) = activate_epoch(&mut e, &ackers, T0);
        let t_wait_before = e.t_wait();
        e.on_data_sent(now, Seq(33));
        let mut out = Vec::new();
        let ack_at = now + Duration::from_millis(50);
        e.on_ack(ack_at, HostId(1), epoch, Seq(33), &mut out);
        assert!(out.is_empty());
        e.on_ack(ack_at, HostId(2), epoch, Seq(33), &mut out);
        assert_eq!(
            out,
            vec![StatAckOutput::Settled {
                seq: Seq(33),
                complete: true
            }]
        );
        // t_wait moved toward the 50 ms sample.
        assert!(e.t_wait() < t_wait_before);
    }

    #[test]
    fn missing_acks_trigger_remulticast_figure8() {
        // Figure 8: three designated ackers, one ACK lost → the source
        // re-multicasts #33 and then receives all three ACKs.
        let mut e = engine(3, 300.0); // each acker represents ~100 sites
        let ackers = [HostId(1), HostId(2), HostId(3)];
        let (epoch, now) = activate_epoch(&mut e, &ackers, T0);
        e.on_data_sent(now, Seq(33));
        let mut out = Vec::new();
        e.on_ack(
            now + Duration::from_millis(10),
            HostId(1),
            epoch,
            Seq(33),
            &mut out,
        );
        e.on_ack(
            now + Duration::from_millis(12),
            HostId(2),
            epoch,
            Seq(33),
            &mut out,
        );
        assert!(out.is_empty());
        // t_wait passes with one ACK missing.
        let deadline = e.next_deadline().unwrap();
        e.poll(deadline, &mut out);
        assert!(
            out.iter().any(
                |o| matches!(o, StatAckOutput::Remulticast { seq, missing: 1 }
                if *seq == Seq(33))
            ),
            "no remulticast in {out:?}"
        );
        // After the re-multicast the third ACK arrives and settles it.
        out.clear();
        e.on_ack(
            deadline + Duration::from_millis(5),
            HostId(3),
            epoch,
            Seq(33),
            &mut out,
        );
        assert_eq!(
            out,
            vec![StatAckOutput::Settled {
                seq: Seq(33),
                complete: true
            }]
        );
    }

    #[test]
    fn small_group_tolerates_single_missing_ack() {
        // §2.3.2: "with a 20 site configuration, it is feasible for each
        // logging server to acknowledge" — one missing ACK then means one
        // site, below the multicast threshold.
        let cfg = StatAckConfig {
            k: 20,
            nsl_initial: 3.0,
            ..StatAckConfig::default()
        };
        let mut e = StatAck::new(cfg, T0);
        let ackers = [HostId(1), HostId(2), HostId(3)];
        let (epoch, now) = activate_epoch(&mut e, &ackers, T0);
        e.on_data_sent(now, Seq(1));
        let mut out = Vec::new();
        e.on_ack(
            now + Duration::from_millis(10),
            HostId(1),
            epoch,
            Seq(1),
            &mut out,
        );
        e.on_ack(
            now + Duration::from_millis(10),
            HostId(2),
            epoch,
            Seq(1),
            &mut out,
        );
        // Deadline passes; 1 missing ack × (3/3 sites-per-acker) = 1 < 2.
        while let Some(d) = e.next_deadline() {
            if d > Time::from_secs(3600) {
                break;
            }
            e.poll(d, &mut out);
            if out
                .iter()
                .any(|o| matches!(o, StatAckOutput::Settled { .. }))
            {
                break;
            }
        }
        assert!(
            !out.iter()
                .any(|o| matches!(o, StatAckOutput::Remulticast { .. })),
            "{out:?}"
        );
        assert!(out.iter().any(
            |o| matches!(o, StatAckOutput::Settled { seq, complete: false } if *seq == Seq(1))
        ));
    }

    #[test]
    fn remulticast_capped() {
        let mut e = engine(2, 100.0);
        let ackers = [HostId(1), HostId(2)];
        let (_, now) = activate_epoch(&mut e, &ackers, T0);
        e.on_data_sent(now, Seq(5));
        let mut remulticasts = 0;
        let mut out = Vec::new();
        for _ in 0..50 {
            let Some(d) = e.next_deadline() else { break };
            if d > now + Duration::from_secs(3600) {
                break;
            }
            out.clear();
            e.poll(d, &mut out);
            remulticasts += out
                .iter()
                .filter(|o| matches!(o, StatAckOutput::Remulticast { .. }))
                .count();
            if out
                .iter()
                .any(|o| matches!(o, StatAckOutput::Settled { .. }))
            {
                break;
            }
        }
        assert_eq!(remulticasts, MAX_REMULTICASTS as usize);
    }

    #[test]
    fn bogus_ackers_get_blacklisted() {
        // §2.3.3: a faulty logger answering every selection is hotlisted
        // and its future ACKs ignored.
        let mut e = engine(2, 20.0);
        let ackers = [HostId(1), HostId(2)];
        let (epoch, now) = activate_epoch(&mut e, &ackers, T0);
        e.on_data_sent(now, Seq(1));
        let rogue = HostId(66);
        let mut out = Vec::new();
        for _ in 0..HOTLIST_THRESHOLD {
            e.on_ack(now, rogue, epoch, Seq(1), &mut out);
        }
        assert!(e.blacklist().contains(&rogue));
        assert!(out.is_empty());
        // Blacklisted hosts cannot volunteer in later epochs.
        let mut out = Vec::new();
        e.poll(now + StatAckConfig::default().epoch_interval, &mut out);
        let new_epoch = out
            .iter()
            .find_map(|o| match o {
                StatAckOutput::StartSelection { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{out:?}"));
        e.on_volunteer(rogue, new_epoch);
        // Drive deadlines (remulticast bookkeeping for Seq(1) interleaves)
        // until the new epoch activates — with zero legitimate ackers.
        let mut activated = None;
        for _ in 0..20 {
            let d = e.next_deadline().unwrap();
            out.clear();
            e.poll(d, &mut out);
            if let Some(a) = out.iter().find_map(|o| match o {
                StatAckOutput::EpochActive { ackers, .. } => Some(*ackers),
                _ => None,
            }) {
                activated = Some(a);
                break;
            }
        }
        assert_eq!(activated, Some(0));
    }

    #[test]
    fn nsl_estimate_refined_by_selection_responses() {
        // Each selection's volunteer count k' refines N_sl via the EWMA.
        let mut e = engine(10, 100.0);
        // 40 volunteers respond to p_ack = 10/100 = 0.1 → sample 400.
        let volunteers: Vec<HostId> = (0..40).map(HostId).collect();
        activate_epoch(&mut e, &volunteers, T0);
        let est = e.nsl_estimate();
        assert!(est > 100.0, "estimate should rise toward 400, got {est}");
    }

    #[test]
    fn no_ackers_means_nothing_expected() {
        let mut e = engine(5, 50.0);
        // No epoch active yet: data tracked but trivially decided.
        e.on_data_sent(T0, Seq(1));
        let mut out = Vec::new();
        e.poll(T0 + Duration::from_secs(10), &mut out);
        assert!(!out
            .iter()
            .any(|o| matches!(o, StatAckOutput::Remulticast { .. })));
    }

    #[test]
    fn initial_probe_converges_before_normal_epochs() {
        use crate::estimate::BolotConfig;
        // 160 secondary loggers; the configured initial estimate is
        // wildly wrong (4). With probing, selections escalate p until
        // confident, then N_sl lands near the truth.
        let truth = 160u64;
        let cfg = StatAckConfig {
            k: 10,
            nsl_initial: 4.0,
            initial_probe: Some(BolotConfig {
                initial_p: 0.02,
                escalation: 4.0,
                min_responses: 8,
                rounds_to_average: 2,
            }),
            ..StatAckConfig::default()
        };
        let mut e = StatAck::new(cfg, T0);
        assert!(e.probing());
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut rounds = 0;
        while e.probing() && rounds < 40 {
            rounds += 1;
            let mut out = Vec::new();
            e.poll(e.next_deadline().unwrap(), &mut out);
            if let Some((epoch, p)) = out.iter().find_map(|o| match o {
                StatAckOutput::StartSelection { epoch, p_ack } => Some((*epoch, *p_ack)),
                _ => None,
            }) {
                use rand::Rng;
                for h in 0..truth {
                    if rng.random_bool(p) {
                        e.on_volunteer(HostId(h), epoch);
                    }
                }
            }
        }
        assert!(!e.probing(), "probe should finish");
        let est = e.nsl_estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.4, "estimate {est} vs true {truth}");
    }

    /// Drives the engine from `now` through one full selection cycle
    /// (StartSelection → volunteers → EpochActive) and returns the new
    /// epoch and the activation time.
    fn advance_epoch(e: &mut StatAck, volunteers: &[HostId], now: Time) -> (EpochId, Time) {
        let mut out = Vec::new();
        e.poll(now, &mut out);
        let epoch = out
            .iter()
            .find_map(|o| match o {
                StatAckOutput::StartSelection { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no StartSelection in {out:?}"));
        for &v in volunteers {
            e.on_volunteer(v, epoch);
        }
        for _ in 0..20 {
            let d = e.next_deadline().unwrap();
            out.clear();
            e.poll(d, &mut out);
            if out
                .iter()
                .any(|o| matches!(o, StatAckOutput::EpochActive { epoch: ep, .. } if *ep == epoch))
            {
                return (epoch, d);
            }
        }
        panic!("epoch {epoch:?} never activated");
    }

    #[test]
    fn stale_epoch_acks_are_ignored_not_hostile() {
        // Regression: an ACK for an epoch evicted from `epoch_ackers`
        // (older than current + previous) used to count toward the
        // §2.3.3 hotlist and could permanently blacklist a legitimate,
        // merely slow Designated Acker.
        let interval = StatAckConfig::default().epoch_interval;
        let mut e = engine(2, 20.0);
        let slow = HostId(1);
        let (old_epoch, now) = activate_epoch(&mut e, &[slow, HostId(2)], T0);
        // Two more epochs activate, evicting `old_epoch`'s acker set.
        let (_, now) = advance_epoch(&mut e, &[HostId(3)], now + interval);
        let (_, now) = advance_epoch(&mut e, &[HostId(4)], now + interval);
        // The slow acker's very late ACKs for the evicted epoch arrive.
        let mut out = Vec::new();
        for i in 0..HOTLIST_THRESHOLD + 2 {
            e.on_ack(now, slow, old_epoch, Seq(i), &mut out);
        }
        assert!(
            !e.blacklist().contains(&slow),
            "stale ACKs must not blacklist a legitimate acker"
        );
        // The host can still volunteer and ACK in a later epoch.
        let (new_epoch, now) = advance_epoch(&mut e, &[slow], now + interval);
        e.on_data_sent(now, Seq(70));
        out.clear();
        e.on_ack(
            now + Duration::from_millis(10),
            slow,
            new_epoch,
            Seq(70),
            &mut out,
        );
        assert_eq!(
            out,
            vec![StatAckOutput::Settled {
                seq: Seq(70),
                complete: true
            }]
        );
    }

    #[test]
    fn remulticast_acks_skip_t_wait_sample_karn() {
        // Regression (Karn's rule): after a re-multicast the completing
        // ACK spans at least one extra t_wait window and may answer
        // either copy, so it must not feed the t_wait EWMA.
        let mut e = engine(3, 300.0);
        let ackers = [HostId(1), HostId(2), HostId(3)];
        let (epoch, now) = activate_epoch(&mut e, &ackers, T0);
        e.on_data_sent(now, Seq(33));
        let mut out = Vec::new();
        e.on_ack(
            now + Duration::from_millis(10),
            HostId(1),
            epoch,
            Seq(33),
            &mut out,
        );
        e.on_ack(
            now + Duration::from_millis(12),
            HostId(2),
            epoch,
            Seq(33),
            &mut out,
        );
        let deadline = e.next_deadline().unwrap();
        e.poll(deadline, &mut out);
        assert!(
            out.iter()
                .any(|o| matches!(o, StatAckOutput::Remulticast { .. })),
            "{out:?}"
        );
        let t_wait_before = e.t_wait();
        out.clear();
        e.on_ack(
            deadline + Duration::from_millis(5),
            HostId(3),
            epoch,
            Seq(33),
            &mut out,
        );
        assert_eq!(
            out,
            vec![StatAckOutput::Settled {
                seq: Seq(33),
                complete: true
            }]
        );
        assert_eq!(
            e.t_wait(),
            t_wait_before,
            "retried packet fed the t_wait EWMA"
        );
        // An un-retried packet still updates the estimator.
        let fresh_now = deadline + Duration::from_millis(20);
        e.on_data_sent(fresh_now, Seq(34));
        out.clear();
        for &h in &ackers {
            e.on_ack(
                fresh_now + Duration::from_millis(40),
                h,
                epoch,
                Seq(34),
                &mut out,
            );
        }
        assert!(out
            .iter()
            .any(|o| matches!(o, StatAckOutput::Settled { complete: true, .. })));
        assert_ne!(e.t_wait(), t_wait_before);
    }

    #[test]
    fn late_acks_for_previous_epoch_still_count() {
        // "the source keeps track of the Designated Ackers for an epoch
        // and expects some overlap in acking between epochs".
        let mut e = engine(2, 20.0);
        let old_ackers = [HostId(1), HostId(2)];
        let (old_epoch, now) = activate_epoch(&mut e, &old_ackers, T0);
        e.on_data_sent(now, Seq(7));
        // A new epoch activates while #7 is outstanding.
        let later = now + StatAckConfig::default().epoch_interval;
        let mut out = Vec::new();
        e.poll(later, &mut out);
        let new_epoch = out
            .iter()
            .find_map(|o| match o {
                StatAckOutput::StartSelection { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .unwrap();
        e.on_volunteer(HostId(9), new_epoch);
        let switch = e.next_deadline().unwrap();
        e.poll(switch, &mut out);
        // Old-epoch ACKs for #7 are still accepted.
        out.clear();
        e.on_ack(switch, HostId(1), old_epoch, Seq(7), &mut out);
        e.on_ack(switch, HostId(2), old_epoch, Seq(7), &mut out);
        assert!(out.iter().any(
            |o| matches!(o, StatAckOutput::Settled { seq, complete: true } if *seq == Seq(7))
        ));
    }
}
