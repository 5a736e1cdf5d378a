//! Traffic accounting.
//!
//! The paper's evaluation counts packets crossing particular *classes* of
//! network segment: the LAN, a site's tail circuit (in either direction),
//! and the WAN backbone. [`NetStats`] records carried and dropped
//! traversals per segment class and per packet kind (`"data"`,
//! `"heartbeat"`, `"nack"`, ...), plus per-site tail-circuit detail for
//! the Figure-7 NACK-reduction experiment.
//!
//! [`BundleStats`] is the datagram-level companion: it models DIS-style
//! PDU bundling (`lbrm_wire::bundle`) arithmetically, so experiments can
//! report datagrams-saved deterministically without serializing a byte.
//! Bundle accounting is deliberately separate from [`NetStats`]: framing
//! decides how packets share datagrams, never which packets are sent or
//! when, so the protocol-visible traffic model does not depend on it.

use std::collections::{BTreeMap, HashMap};

use lbrm_wire::bundle::{
    BUNDLE_HEADER_LEN, DEFAULT_BUNDLE_MTU, ENTRY_PREFIX_LEN, MAX_BUNDLE_PACKETS,
};
use lbrm_wire::SiteId;

use crate::time::SimTime;

/// The four classes of network segment in the Figure-1 topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentClass {
    /// A site's local network.
    Lan,
    /// A site's tail circuit, outbound (site → backbone).
    TailOut,
    /// A site's tail circuit, inbound (backbone → site).
    TailIn,
    /// The wide-area backbone.
    Wan,
}

/// Carried/dropped counters for one key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Traversals that crossed the segment.
    pub carried: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Traversals dropped by the segment's loss model.
    pub dropped: u64,
}

/// Aggregated network statistics for a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    by_class: HashMap<(SegmentClass, &'static str), Counter>,
    by_site_tail: HashMap<(SiteId, SegmentClass, &'static str), Counter>,
}

impl NetStats {
    /// Records a traversal of `class` by a packet of `kind`.
    pub fn record(
        &mut self,
        class: SegmentClass,
        site: Option<SiteId>,
        kind: &'static str,
        bytes: usize,
        dropped: bool,
    ) {
        let c = self.by_class.entry((class, kind)).or_default();
        if dropped {
            c.dropped += 1;
        } else {
            c.carried += 1;
            c.bytes += bytes as u64;
        }
        if let Some(site) = site {
            let c = self.by_site_tail.entry((site, class, kind)).or_default();
            if dropped {
                c.dropped += 1;
            } else {
                c.carried += 1;
                c.bytes += bytes as u64;
            }
        }
    }

    /// Counter for a segment class and packet kind.
    pub fn class_kind(&self, class: SegmentClass, kind: &str) -> Counter {
        self.by_class
            .iter()
            .filter(|((c, k), _)| *c == class && *k == kind)
            .map(|(_, v)| *v)
            .fold(Counter::default(), add)
    }

    /// Total counter for a segment class across all packet kinds.
    pub fn class_total(&self, class: SegmentClass) -> Counter {
        self.by_class
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, v)| *v)
            .fold(Counter::default(), add)
    }

    /// Counter for one site's tail circuit in one direction and kind.
    pub fn site_tail(&self, site: SiteId, class: SegmentClass, kind: &str) -> Counter {
        self.by_site_tail
            .iter()
            .filter(|((s, c, k), _)| *s == site && *c == class && *k == kind)
            .map(|(_, v)| *v)
            .fold(Counter::default(), add)
    }
}

fn add(a: Counter, b: Counter) -> Counter {
    Counter {
        carried: a.carried + b.carried,
        bytes: a.bytes + b.bytes,
        dropped: a.dropped + b.dropped,
    }
}

/// Per-packet-kind bundle accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindBundle {
    /// Protocol packets of this kind sent.
    pub packets: u64,
    /// Datagram frames *opened* by a packet of this kind. A mixed-kind
    /// frame is charged to the kind that opened it, so per-kind frames
    /// sum exactly to [`BundleStats::frames`].
    pub frames: u64,
}

/// Datagram-level accounting under the simulator's bundle-framing model.
///
/// Two ledgers: `frames`/`bytes_bundled` are what is sent — MTU-bounded
/// coalesced frames — and `packets`/`bytes_unbundled` are the
/// one-datagram-per-packet counterfactual the bundling experiments
/// compare against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// Protocol packets sent (= datagrams had each gone out alone).
    pub packets: u64,
    /// Datagrams sent: consecutive same-instant sends to one destination
    /// share MTU-bounded frames.
    pub frames: u64,
    /// Wire bytes had each packet gone out as its own datagram.
    pub bytes_unbundled: u64,
    /// Wire bytes sent under bundle framing (single-packet frames carry no
    /// framing overhead — they go out as bare packets).
    pub bytes_bundled: u64,
    /// Per-kind breakdown (deterministically ordered).
    pub per_kind: BTreeMap<&'static str, KindBundle>,
}

impl BundleStats {
    /// Per-kind counters (zero for kinds never sent).
    pub fn kind(&self, kind: &str) -> KindBundle {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }

    /// Folds another accounting into this one; `World::bundle_stats`
    /// sums its per-host meters this way. Commutative and associative.
    pub(crate) fn merge(&mut self, other: &BundleStats) {
        self.packets += other.packets;
        self.frames += other.frames;
        self.bytes_unbundled += other.bytes_unbundled;
        self.bytes_bundled += other.bytes_bundled;
        for (k, v) in &other.per_kind {
            let c = self.per_kind.entry(k).or_default();
            c.packets += v.packets;
            c.frames += v.frames;
        }
    }
}

/// Where a metered send was headed. Unicast sends key on the target
/// host; multicast sends key on (group, TTL) — one IP-multicast datagram
/// regardless of receiver count.
pub(crate) type DestKey = (u8, u64, u64);

/// One host's deterministic bundle-framing fold.
///
/// Mirrors `lbrm_wire::BundleBuilder`'s flush rule arithmetically: a
/// send joins the open frame iff it happens at the same virtual instant,
/// to the same destination, the frame holds fewer than
/// [`MAX_BUNDLE_PACKETS`], and the entry still fits the MTU.
#[derive(Debug, Default)]
pub(crate) struct BundleMeter {
    stats: BundleStats,
    open: Option<OpenFrame>,
}

#[derive(Debug)]
struct OpenFrame {
    at: SimTime,
    dest: DestKey,
    count: usize,
    /// Modeled frame size: header + Σ(prefix + packet).
    frame_bytes: usize,
}

impl BundleMeter {
    /// Accounts one packet send of `len` encoded bytes.
    pub fn record(&mut self, at: SimTime, dest: DestKey, kind: &'static str, len: usize) {
        self.stats.packets += 1;
        self.stats.bytes_unbundled += len as u64;
        self.stats.per_kind.entry(kind).or_default().packets += 1;
        if let Some(open) = &mut self.open {
            if open.at == at
                && open.dest == dest
                && open.count < MAX_BUNDLE_PACKETS
                && open.frame_bytes + ENTRY_PREFIX_LEN + len <= DEFAULT_BUNDLE_MTU
            {
                if open.count == 1 {
                    // The frame just became a real bundle: charge the
                    // header and the first entry's prefix retroactively
                    // (a frame that stays single goes out bare).
                    self.stats.bytes_bundled += (BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN) as u64;
                }
                self.stats.bytes_bundled += (ENTRY_PREFIX_LEN + len) as u64;
                open.count += 1;
                open.frame_bytes += ENTRY_PREFIX_LEN + len;
                return;
            }
        }
        self.open = Some(OpenFrame {
            at,
            dest,
            count: 1,
            frame_bytes: BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN + len,
        });
        self.stats.frames += 1;
        self.stats.bytes_bundled += len as u64;
        self.stats.per_kind.entry(kind).or_default().frames += 1;
    }

    /// The accumulated accounting.
    pub fn stats(&self) -> &BundleStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = NetStats::default();
        s.record(SegmentClass::Wan, None, "nack", 40, false);
        s.record(SegmentClass::Wan, None, "nack", 40, false);
        s.record(SegmentClass::Wan, None, "nack", 40, true);
        s.record(SegmentClass::Wan, None, "data", 100, false);
        s.record(SegmentClass::TailIn, Some(SiteId(3)), "data", 100, true);

        let n = s.class_kind(SegmentClass::Wan, "nack");
        assert_eq!(n.carried, 2);
        assert_eq!(n.dropped, 1);
        assert_eq!(n.bytes, 80);

        let t = s.class_total(SegmentClass::Wan);
        assert_eq!(t.carried, 3);

        let tail = s.site_tail(SiteId(3), SegmentClass::TailIn, "data");
        assert_eq!(tail.dropped, 1);
        assert_eq!(tail.carried, 0);

        assert_eq!(
            s.site_tail(SiteId(9), SegmentClass::TailIn, "data"),
            Counter::default()
        );
    }

    #[test]
    fn bundle_meter_coalesces_same_instant_same_dest() {
        let mut m = BundleMeter::default();
        let t0 = SimTime::ZERO;
        let dest = (0u8, 7u64, 0u64);
        m.record(t0, dest, "retrans", 100);
        m.record(t0, dest, "retrans", 100);
        m.record(t0, dest, "retrans", 100);
        let s = m.stats();
        assert_eq!(s.packets, 3);
        assert_eq!(s.frames, 1, "same instant + dest must share a frame");
        assert_eq!(s.bytes_unbundled, 300);
        // 8-byte header + three (2-byte prefix + 100-byte packet) entries.
        assert_eq!(s.bytes_bundled, 8 + 3 * 102);
        assert_eq!(s.kind("retrans").frames, 1);
        assert_eq!(s.kind("retrans").packets, 3);

        // A later instant opens a new frame even to the same dest.
        let t1 = t0 + std::time::Duration::from_millis(1);
        m.record(t1, dest, "retrans", 100);
        assert_eq!(m.stats().frames, 2);
        // A different dest at that instant opens another.
        m.record(t1, (0, 8, 0), "retrans", 100);
        assert_eq!(m.stats().frames, 3);
    }

    #[test]
    fn single_packet_frames_are_billed_bare() {
        let mut m = BundleMeter::default();
        m.record(SimTime::ZERO, (0, 1, 0), "data", 64);
        assert_eq!(m.stats().bytes_bundled, 64, "no framing for a lone packet");
        assert_eq!(m.stats().bytes_unbundled, 64);
    }

    #[test]
    fn bundle_meter_respects_mtu_and_count_cap() {
        // Two 700-byte packets: 8 + 702 + 702 > 1400, so the second
        // opens a new frame.
        let mut m = BundleMeter::default();
        let dest = (1u8, 1u64, 15u64);
        m.record(SimTime::ZERO, dest, "data", 700);
        m.record(SimTime::ZERO, dest, "data", 700);
        assert_eq!(m.stats().frames, 2);

        // 300 one-byte packets fit the MTU but overflow the u8 count.
        let mut m = BundleMeter::default();
        for _ in 0..300 {
            m.record(SimTime::ZERO, dest, "nack", 1);
        }
        assert_eq!(m.stats().packets, 300);
        assert_eq!(m.stats().frames, 2, "count cap at 255 splits the frame");
    }

    #[test]
    fn bundle_stats_keep_both_ledgers_and_merge_is_order_free() {
        let mut m = BundleMeter::default();
        let dest = (0u8, 2u64, 0u64);
        for _ in 0..10 {
            m.record(SimTime::ZERO, dest, "retrans", 50);
        }
        let ten = m.stats().clone();
        assert_eq!((ten.packets, ten.bytes_unbundled), (10, 500));
        assert_eq!((ten.frames, ten.bytes_bundled), (1, 8 + 10 * 52));
        m.record(SimTime::ZERO, (0, 3, 0), "nack", 40);
        let eleven = m.stats().clone();

        let mut a = BundleStats::default();
        a.merge(&ten);
        a.merge(&eleven);
        let mut b = BundleStats::default();
        b.merge(&eleven);
        b.merge(&ten);
        assert_eq!(a, b, "merge must be commutative");
        assert_eq!((a.packets, a.frames), (21, 3));
        assert_eq!(a.kind("retrans").packets, 20);
    }
}
