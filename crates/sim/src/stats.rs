//! Traffic accounting.
//!
//! The paper's evaluation counts packets crossing particular *classes* of
//! network segment: the LAN, a site's tail circuit (in either direction),
//! and the WAN backbone. [`NetStats`] records carried and dropped
//! traversals per segment class and per packet kind (`"data"`,
//! `"heartbeat"`, `"nack"`, ...), plus per-site tail-circuit detail for
//! the Figure-7 NACK-reduction experiment.
//!
//! Counters are dense arrays indexed by [`Packet::kind_index`] (the wire
//! type tag − 1, the order of [`PACKET_KINDS`]), sized once for the
//! topology's sites, so counting a simulated hop hashes nothing and
//! allocates nothing. Queries still name kinds by label.
//!
//! [`BundleStats`] is the datagram-level companion: it models DIS-style
//! PDU bundling (`lbrm_wire::bundle`) arithmetically, so experiments can
//! report datagrams-saved deterministically without serializing a byte.
//! Bundle accounting is deliberately separate from [`NetStats`]: framing
//! decides how packets share datagrams, never which packets are sent or
//! when, so the protocol-visible traffic model does not depend on it.
//!
//! [`Packet::kind_index`]: lbrm_wire::Packet::kind_index

use std::collections::BTreeMap;

use lbrm_wire::bundle::{
    BUNDLE_HEADER_LEN, DEFAULT_BUNDLE_MTU, ENTRY_PREFIX_LEN, MAX_BUNDLE_PACKETS,
};
use lbrm_wire::codec::{kind_index_of, PACKET_KINDS};
use lbrm_wire::SiteId;

use crate::time::SimTime;

/// Number of packet kinds: the width of every per-kind counter row.
const KINDS: usize = PACKET_KINDS.len();
/// Number of [`SegmentClass`]es.
const CLASSES: usize = 4;

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

impl Counter {
    fn count(&mut self, bytes: usize, dropped: bool) {
        if dropped {
            self.dropped += 1;
        } else {
            self.carried += 1;
            self.bytes += bytes as u64;
        }
    }
}

/// Aggregated network statistics for a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// `[class][kind]`.
    by_class: Vec<Counter>,
    /// `[site][class][kind]`.
    by_site: Vec<Counter>,
}

impl NetStats {
    /// Zeroed counters for a topology of `sites` sites.
    pub fn new(sites: usize) -> NetStats {
        NetStats {
            by_class: vec![Counter::default(); CLASSES * KINDS],
            by_site: vec![Counter::default(); sites * CLASSES * KINDS],
        }
    }

    /// Records a traversal of `class` by a packet whose
    /// [`kind_index`](lbrm_wire::Packet::kind_index) is `kind`.
    ///
    /// # Panics
    ///
    /// If `kind` is not a packet kind or `site` is past the topology
    /// these counters were sized for.
    pub fn record(
        &mut self,
        class: SegmentClass,
        site: Option<SiteId>,
        kind: usize,
        bytes: usize,
        dropped: bool,
    ) {
        assert!(kind < KINDS, "packet kind index {kind} out of range");
        let at = class as usize * KINDS + kind;
        self.by_class[at].count(bytes, dropped);
        if let Some(site) = site {
            self.by_site[site.raw() as usize * CLASSES * KINDS + at].count(bytes, dropped);
        }
    }

    /// Counter for a segment class and packet kind (zero for an unknown
    /// kind).
    pub fn class_kind(&self, class: SegmentClass, kind: &str) -> Counter {
        kind_index_of(kind)
            .map(|k| self.by_class[class as usize * KINDS + k])
            .unwrap_or_default()
    }

    /// Total counter for a segment class across all packet kinds.
    pub fn class_total(&self, class: SegmentClass) -> Counter {
        let row = class as usize * KINDS;
        self.by_class[row..row + KINDS]
            .iter()
            .fold(Counter::default(), |a, b| add(a, *b))
    }

    /// Counter for one site's tail circuit in one direction and kind
    /// (zero for an unknown kind or a site outside the topology).
    pub fn site_tail(&self, site: SiteId, class: SegmentClass, kind: &str) -> Counter {
        kind_index_of(kind)
            .and_then(|k| {
                let at = (site.raw() as usize * CLASSES + class as usize) * KINDS + k;
                self.by_site.get(at).copied()
            })
            .unwrap_or_default()
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
}

/// Where a metered send was headed. Unicast sends key on the target
/// host; multicast sends key on (group, TTL) — one IP-multicast datagram
/// regardless of receiver count.
pub(crate) type DestKey = (u8, u64, u64);

/// The world's deterministic bundle-framing fold: one open frame per
/// host, one set of totals.
///
/// Mirrors `lbrm_wire::BundleBuilder`'s flush rule arithmetically: a
/// host's send joins its open frame iff it happens at the same virtual
/// instant, to the same destination, the frame holds fewer than
/// [`MAX_BUNDLE_PACKETS`], and the entry still fits the MTU.
#[derive(Debug)]
pub(crate) struct BundleMeter {
    /// Totals only: the per-kind breakdown lives in `per_kind`.
    totals: BundleStats,
    /// By packet kind index.
    per_kind: [KindBundle; KINDS],
    /// Each host's open frame, by host index.
    open: Vec<Option<OpenFrame>>,
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
    /// A meter for `hosts` sending hosts.
    pub fn new(hosts: usize) -> BundleMeter {
        BundleMeter {
            totals: BundleStats::default(),
            per_kind: [KindBundle::default(); KINDS],
            open: (0..hosts).map(|_| None).collect(),
        }
    }

    /// Accounts one send of `len` encoded bytes by host index `host` of
    /// a packet whose [`kind_index`](lbrm_wire::Packet::kind_index) is
    /// `kind`.
    pub fn record(&mut self, host: usize, at: SimTime, dest: DestKey, kind: usize, len: usize) {
        let totals = &mut self.totals;
        totals.packets += 1;
        totals.bytes_unbundled += len as u64;
        self.per_kind[kind].packets += 1;
        let open = &mut self.open[host];
        if let Some(frame) = open {
            if frame.at == at
                && frame.dest == dest
                && frame.count < MAX_BUNDLE_PACKETS
                && frame.frame_bytes + ENTRY_PREFIX_LEN + len <= DEFAULT_BUNDLE_MTU
            {
                if frame.count == 1 {
                    // The frame just became a real bundle: charge the
                    // header and the first entry's prefix retroactively
                    // (a frame that stays single goes out bare).
                    totals.bytes_bundled += (BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN) as u64;
                }
                totals.bytes_bundled += (ENTRY_PREFIX_LEN + len) as u64;
                frame.count += 1;
                frame.frame_bytes += ENTRY_PREFIX_LEN + len;
                return;
            }
        }
        *open = Some(OpenFrame {
            at,
            dest,
            count: 1,
            frame_bytes: BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN + len,
        });
        totals.frames += 1;
        totals.bytes_bundled += len as u64;
        self.per_kind[kind].frames += 1;
    }

    /// The accounting so far, with the kinds sent labelled.
    pub fn stats(&self) -> BundleStats {
        let mut out = self.totals.clone();
        for (label, k) in PACKET_KINDS.iter().zip(&self.per_kind) {
            if k.packets > 0 {
                out.per_kind.insert(label, *k);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn kind(label: &str) -> usize {
        kind_index_of(label).expect("a packet label")
    }

    #[test]
    fn record_and_query() {
        let mut s = NetStats::new(4);
        s.record(SegmentClass::Wan, None, kind("nack"), 40, false);
        s.record(SegmentClass::Wan, None, kind("nack"), 40, false);
        s.record(SegmentClass::Wan, None, kind("nack"), 40, true);
        s.record(SegmentClass::Wan, None, kind("data"), 100, false);
        s.record(
            SegmentClass::TailIn,
            Some(SiteId(3)),
            kind("data"),
            100,
            true,
        );

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

    /// The hash-map accounting the arrays replaced, kept as the oracle.
    #[derive(Default)]
    struct MapStats {
        by_class: HashMap<(SegmentClass, &'static str), Counter>,
        by_site_tail: HashMap<(SiteId, SegmentClass, &'static str), Counter>,
    }

    impl MapStats {
        fn record(
            &mut self,
            class: SegmentClass,
            site: Option<SiteId>,
            kind: &'static str,
            bytes: usize,
            dropped: bool,
        ) {
            self.by_class
                .entry((class, kind))
                .or_default()
                .count(bytes, dropped);
            if let Some(site) = site {
                self.by_site_tail
                    .entry((site, class, kind))
                    .or_default()
                    .count(bytes, dropped);
            }
        }

        fn class_kind(&self, class: SegmentClass, kind: &str) -> Counter {
            self.by_class
                .iter()
                .filter(|((c, k), _)| *c == class && *k == kind)
                .fold(Counter::default(), |a, (_, v)| add(a, *v))
        }

        fn class_total(&self, class: SegmentClass) -> Counter {
            self.by_class
                .iter()
                .filter(|((c, _), _)| *c == class)
                .fold(Counter::default(), |a, (_, v)| add(a, *v))
        }

        fn site_tail(&self, site: SiteId, class: SegmentClass, kind: &str) -> Counter {
            self.by_site_tail
                .iter()
                .filter(|((s, c, k), _)| *s == site && *c == class && *k == kind)
                .fold(Counter::default(), |a, (_, v)| add(a, *v))
        }
    }

    const ALL_CLASSES: [SegmentClass; CLASSES] = [
        SegmentClass::Lan,
        SegmentClass::TailOut,
        SegmentClass::TailIn,
        SegmentClass::Wan,
    ];

    #[test]
    fn arrays_agree_with_the_map_oracle() {
        const SITES: u32 = 7;
        let mut rng = SmallRng::seed_from_u64(0x57A75);
        let mut arrays = NetStats::new(SITES as usize);
        let mut oracle = MapStats::default();
        for _ in 0..10_000 {
            let class = ALL_CLASSES[rng.random_range(0..CLASSES)];
            let site = rng
                .random_bool(0.7)
                .then(|| SiteId(rng.random_range(0..SITES)));
            let k = rng.random_range(0..KINDS);
            let bytes = rng.random_range(0..1500usize);
            let dropped = rng.random_bool(0.2);
            arrays.record(class, site, k, bytes, dropped);
            oracle.record(class, site, PACKET_KINDS[k], bytes, dropped);
        }
        for class in ALL_CLASSES {
            assert_eq!(arrays.class_total(class), oracle.class_total(class));
            for label in PACKET_KINDS {
                assert_eq!(
                    arrays.class_kind(class, label),
                    oracle.class_kind(class, label)
                );
                for site in 0..SITES {
                    assert_eq!(
                        arrays.site_tail(SiteId(site), class, label),
                        oracle.site_tail(SiteId(site), class, label),
                        "site {site} {class:?} {label}"
                    );
                }
            }
            // Unknown labels and sites past the topology answer zero.
            assert_eq!(arrays.class_kind(class, "no-such-kind"), Counter::default());
            for site in [SITES, SITES + 1, u32::MAX] {
                assert_eq!(
                    arrays.site_tail(SiteId(site), class, "data"),
                    Counter::default()
                );
            }
            assert_eq!(
                arrays.site_tail(SiteId(0), class, "no-such-kind"),
                Counter::default()
            );
        }
        assert!(arrays.class_total(SegmentClass::Lan).carried > 0);
    }

    #[test]
    fn bundle_meter_coalesces_same_instant_same_dest() {
        let mut m = BundleMeter::new(1);
        let t0 = SimTime::ZERO;
        let dest = (0u8, 7u64, 0u64);
        m.record(0, t0, dest, kind("retrans"), 100);
        m.record(0, t0, dest, kind("retrans"), 100);
        m.record(0, t0, dest, kind("retrans"), 100);
        let s = m.stats();
        assert_eq!(s.packets, 3);
        assert_eq!(s.frames, 1, "same instant + dest must share a frame");
        assert_eq!(s.bytes_unbundled, 300);
        // 8-byte header + three (2-byte prefix + 100-byte packet) entries.
        assert_eq!(s.bytes_bundled, 8 + 3 * 102);
        assert_eq!(s.kind("retrans").frames, 1);
        assert_eq!(s.kind("retrans").packets, 3);
        assert_eq!(s.per_kind.len(), 1, "only kinds sent are labelled");

        // A later instant opens a new frame even to the same dest.
        let t1 = t0 + std::time::Duration::from_millis(1);
        m.record(0, t1, dest, kind("retrans"), 100);
        assert_eq!(m.stats().frames, 2);
        // A different dest at that instant opens another.
        m.record(0, t1, (0, 8, 0), kind("retrans"), 100);
        assert_eq!(m.stats().frames, 3);
    }

    #[test]
    fn single_packet_frames_are_billed_bare() {
        let mut m = BundleMeter::new(1);
        m.record(0, SimTime::ZERO, (0, 1, 0), kind("data"), 64);
        assert_eq!(m.stats().bytes_bundled, 64, "no framing for a lone packet");
        assert_eq!(m.stats().bytes_unbundled, 64);
    }

    #[test]
    fn bundle_meter_respects_mtu_and_count_cap() {
        // Two 700-byte packets: 8 + 702 + 702 > 1400, so the second
        // opens a new frame.
        let mut m = BundleMeter::new(1);
        let dest = (1u8, 1u64, 15u64);
        m.record(0, SimTime::ZERO, dest, kind("data"), 700);
        m.record(0, SimTime::ZERO, dest, kind("data"), 700);
        assert_eq!(m.stats().frames, 2);

        // 300 one-byte packets fit the MTU but overflow the u8 count.
        let mut m = BundleMeter::new(1);
        for _ in 0..300 {
            m.record(0, SimTime::ZERO, dest, kind("nack"), 1);
        }
        assert_eq!(m.stats().packets, 300);
        assert_eq!(m.stats().frames, 2, "count cap at 255 splits the frame");
    }

    #[test]
    fn hosts_keep_their_own_frames_and_share_the_totals() {
        let mut m = BundleMeter::new(2);
        let dest = (0u8, 2u64, 0u64);
        // Host 1's sends between host 0's do not close host 0's frame.
        for _ in 0..10 {
            m.record(0, SimTime::ZERO, dest, kind("retrans"), 50);
            m.record(1, SimTime::ZERO, dest, kind("retrans"), 50);
        }
        m.record(1, SimTime::ZERO, (0, 3, 0), kind("nack"), 40);
        let s = m.stats();
        assert_eq!((s.packets, s.bytes_unbundled), (21, 1040));
        assert_eq!((s.frames, s.bytes_bundled), (3, 2 * (8 + 10 * 52) + 40));
        assert_eq!(
            s.kind("retrans"),
            KindBundle {
                packets: 20,
                frames: 2
            }
        );
        assert_eq!(
            s.kind("nack"),
            KindBundle {
                packets: 1,
                frames: 1
            }
        );
        assert_eq!(s.per_kind.len(), 2, "only kinds sent are labelled");
    }
}
