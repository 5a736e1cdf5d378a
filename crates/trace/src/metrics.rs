//! The metrics registry: per-event counters, attached gauge tables, and
//! the two latency distributions the paper's evaluation revolves around.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{lock, ProtocolEvent, TraceSink, EVENT_KEYS};

/// A latency distribution that retains every sample, so experiments can
/// compute exact percentiles (runs are sim-scale: thousands of samples,
/// not millions).
#[derive(Debug, Default)]
pub struct Histogram {
    samples_nanos: Vec<u64>,
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, nanos: u64) {
        self.samples_nanos.push(nanos);
    }

    /// An immutable view for computation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut sorted = self.samples_nanos.clone();
        sorted.sort_unstable();
        HistogramSnapshot {
            sorted_nanos: sorted,
            totals: None,
        }
    }
}

/// Exact totals carried by a snapshot whose raw samples were
/// reservoir-sampled down (see [`StreamingHistogram`]): the count, sum
/// and max cover *every* recorded value, not just the retained ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactTotals {
    count: u64,
    sum: u128,
    max_nanos: u64,
}

/// A sorted copy of a [`Histogram`]'s samples.
///
/// Snapshots taken from a [`StreamingHistogram`] whose reservoir
/// overflowed additionally carry exact totals: [`count`](Self::count),
/// [`mean`](Self::mean) and [`max`](Self::max) stay exact over the full
/// population while [`samples`](Self::samples) and
/// [`percentile`](Self::percentile) answer from the retained reservoir.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    sorted_nanos: Vec<u64>,
    totals: Option<ExactTotals>,
}

impl HistogramSnapshot {
    /// Number of samples recorded (exact even when the retained raw
    /// samples were reservoir-sampled down).
    pub fn count(&self) -> usize {
        match self.totals {
            Some(t) => t.count as usize,
            None => self.sorted_nanos.len(),
        }
    }

    /// The retained samples, ascending. For a reservoir-sampled
    /// snapshot this is the reservoir, not the full population (the
    /// full population's count/mean/max stay exact).
    pub fn samples(&self) -> Vec<Duration> {
        self.sorted_nanos
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect()
    }

    /// Arithmetic mean, or zero when empty. Exact even for
    /// reservoir-sampled snapshots (the running sum is kept).
    pub fn mean(&self) -> Duration {
        if let Some(t) = self.totals {
            if t.count == 0 {
                return Duration::ZERO;
            }
            return Duration::from_nanos((t.sum / u128::from(t.count)) as u64);
        }
        if self.sorted_nanos.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.sorted_nanos.iter().map(|&n| u128::from(n)).sum();
        Duration::from_nanos((sum / self.sorted_nanos.len() as u128) as u64)
    }

    /// The `p`-th percentile (`0.0..=1.0`) by nearest-rank over the
    /// retained samples (an unbiased estimate when reservoir-sampled),
    /// or zero when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.sorted_nanos.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.sorted_nanos.len() as f64).ceil() as usize)
            .clamp(1, self.sorted_nanos.len());
        Duration::from_nanos(self.sorted_nanos[rank - 1])
    }

    /// Largest sample, or zero when empty. Exact even for
    /// reservoir-sampled snapshots.
    pub fn max(&self) -> Duration {
        match self.totals {
            Some(t) => Duration::from_nanos(t.max_nanos),
            None => Duration::from_nanos(self.sorted_nanos.last().copied().unwrap_or(0)),
        }
    }

    /// `true` when the raw samples were reservoir-sampled down — i.e.
    /// [`samples`](Self::samples) holds fewer values than
    /// [`count`](Self::count).
    pub fn is_sampled(&self) -> bool {
        self.totals.is_some()
    }
}

/// Number of power-of-two latency buckets in a [`StreamingHistogram`]
/// (bucket `i` counts samples with `ilog2(nanos) == i`; zero lands in
/// bucket 0), covering the whole `u64` nanosecond range.
pub const STREAM_HIST_BUCKETS: usize = 64;

/// A latency distribution with O(1) memory per sample: a fixed array of
/// power-of-two buckets (exact count/sum/max) plus a bounded reservoir
/// of raw samples for percentile estimation. This is what the streaming
/// forensics correlator folds stage latencies into, so a million-event
/// capture costs kilobytes instead of a `Vec` of every sample.
///
/// The reservoir uses Algorithm R with a fixed-seed splitmix64 stream,
/// so runs are deterministic: identical inputs yield identical
/// snapshots, and while the sample count is at or below the reservoir
/// capacity the snapshot is byte-for-byte the exact distribution (which
/// is what the forensics differential tests pin).
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    buckets: [u64; STREAM_HIST_BUCKETS],
    count: u64,
    sum: u128,
    max_nanos: u64,
    reservoir: Vec<u64>,
    capacity: usize,
    rng: u64,
}

impl StreamingHistogram {
    /// A histogram retaining at most `capacity` raw samples (at least 1).
    pub fn new(capacity: usize) -> Self {
        StreamingHistogram {
            buckets: [0; STREAM_HIST_BUCKETS],
            count: 0,
            sum: 0,
            max_nanos: 0,
            reservoir: Vec::new(),
            capacity: capacity.max(1),
            rng: 0x5EED_FACE_CAFE_F00D,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // splitmix64: deterministic, seedless-environment friendly.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Adds one sample: O(1) time, O(1) memory.
    pub fn record(&mut self, nanos: u64) {
        let bucket = if nanos == 0 {
            0
        } else {
            nanos.ilog2() as usize
        };
        self.buckets[bucket] += 1;
        self.sum += u128::from(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        // Algorithm R: the i-th sample (0-based) replaces a random
        // reservoir slot with probability capacity/(i+1).
        if (self.count as usize) < self.capacity {
            self.reservoir.push(nanos);
        } else {
            let j = self.next_rand() % (self.count + 1);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = nanos;
            }
        }
        self.count += 1;
    }

    /// The power-of-two bucket counts (exact; bucket `i` holds samples
    /// with `ilog2(nanos) == i`).
    pub fn bucket_counts(&self) -> &[u64; STREAM_HIST_BUCKETS] {
        &self.buckets
    }

    /// Approximate resident bytes of this histogram (fixed buckets +
    /// the reservoir).
    pub fn approx_bytes(&self) -> u64 {
        (STREAM_HIST_BUCKETS * 8 + self.reservoir.len() * 8 + 64) as u64
    }

    /// An immutable view. While the sample count is at most the
    /// capacity this is exactly the full distribution; beyond that the
    /// raw samples are the reservoir and the snapshot carries exact
    /// count/sum/max totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.clone().into_snapshot()
    }

    /// [`snapshot`](Self::snapshot), sorting the reservoir in place.
    pub fn into_snapshot(mut self) -> HistogramSnapshot {
        self.reservoir.sort_unstable();
        HistogramSnapshot {
            sorted_nanos: self.reservoir,
            totals: (self.count as usize > self.capacity).then_some(ExactTotals {
                count: self.count,
                sum: self.sum,
                max_nanos: self.max_nanos,
            }),
        }
    }
}

/// A table of gauge rows, declared once beside whoever counts them. An
/// instance ([`Gauges`]) attached to a registry under `label` lists row
/// `r` as `<root>.<label>.<r>` (`<root>.<r>` for an empty label).
#[derive(Debug)]
pub struct GaugeTable {
    /// The first part of every row's name, e.g. `net` or `sim.link`.
    pub root: &'static str,
    /// Row names, in slot order.
    pub rows: &'static [&'static str],
    /// Rows still at zero are left out of listings: a reading that never
    /// happened (a tail that never queued) is not shown as one.
    pub hide_zero: bool,
}

/// One instance of a [`GaugeTable`]: a value per row, written where it
/// is counted and read in place by every registry it is attached to.
#[derive(Debug)]
pub struct Gauges {
    table: &'static GaugeTable,
    values: Box<[AtomicU64]>,
}

impl Gauges {
    /// A zeroed instance of `table`.
    pub fn new(table: &'static GaugeTable) -> Self {
        Gauges {
            table,
            values: table.rows.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `n` to row `row`.
    pub fn add(&self, row: usize, n: u64) {
        self.values[row].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets row `row` to `value`.
    pub fn set(&self, row: usize, value: u64) {
        self.values[row].store(value, Ordering::Relaxed);
    }

    /// Row `row`'s value.
    pub fn get(&self, row: usize) -> u64 {
        self.values[row].load(Ordering::Relaxed)
    }
}

/// A [`TraceSink`] that aggregates: a counter per
/// [`ProtocolEvent::key`], a histogram of recovery latencies (from
/// [`ProtocolEvent::Recovered`]) and a histogram of `t_wait` values
/// (from [`ProtocolEvent::TWaitUpdated`]). Gauges are not events: their
/// owners [`attach`](Self::attach) them, and the registry reads them in
/// place.
///
/// Share one registry across the machines whose events should aggregate
/// together (e.g. all receivers of a scenario).
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Indexed by [`ProtocolEvent::key_index`].
    counters: [AtomicU64; EVENT_KEYS.len()],
    /// Attached gauge rows, with the prefix they are listed under.
    gauges: Mutex<Vec<(String, Arc<Gauges>)>>,
    recovery_latency: Mutex<StreamingHistogram>,
    t_wait: Mutex<StreamingHistogram>,
}

/// Raw samples a registry histogram retains: sim runs record far fewer
/// and stay exact; a live endpoint's registry must not grow with uptime.
const REGISTRY_RESERVOIR: usize = 65_536;

impl Default for MetricsRegistry {
    fn default() -> Self {
        let hist = || Mutex::new(StreamingHistogram::new(REGISTRY_RESERVOIR));
        MetricsRegistry {
            counters: [const { AtomicU64::new(0) }; EVENT_KEYS.len()],
            gauges: Mutex::default(),
            recovery_latency: hist(),
            t_wait: hist(),
        }
    }
}

impl MetricsRegistry {
    /// Events counted under `key` so far (zero for an unknown key).
    pub fn counter(&self, key: &str) -> u64 {
        EVENT_KEYS
            .iter()
            .position(|k| *k == key)
            .map_or(0, |i| self.counters[i].load(Ordering::Relaxed))
    }

    /// All nonzero counters, sorted by key.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        EVENT_KEYS
            .iter()
            .zip(&self.counters)
            .map(|(k, n)| (*k, n.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Lists `gauges` from now on, under `<root>.<label>` (`<root>` for
    /// an empty label; see [`GaugeTable`]).
    pub fn attach(&self, label: impl std::fmt::Display, gauges: Arc<Gauges>) {
        let root = gauges.table.root;
        let prefix = match label.to_string() {
            l if l.is_empty() => root.to_owned(),
            l => format!("{root}.{l}"),
        };
        lock(&self.gauges).push((prefix, gauges));
    }

    /// The gauge named `key`, or zero.
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges().get(key).copied().unwrap_or(0)
    }

    /// All listed gauges, sorted by name, read from the attached rows.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        let mut all = BTreeMap::new();
        for (prefix, g) in lock(&self.gauges).iter() {
            for (row, v) in g.table.rows.iter().zip(&*g.values) {
                let v = v.load(Ordering::Relaxed);
                if v > 0 || !g.table.hide_zero {
                    all.insert(format!("{prefix}.{row}"), v);
                }
            }
        }
        all
    }

    /// The recovery-latency distribution accumulated so far.
    pub fn recovery_latency(&self) -> HistogramSnapshot {
        lock(&self.recovery_latency).snapshot()
    }

    /// The `t_wait` sample distribution accumulated so far.
    pub fn t_wait(&self) -> HistogramSnapshot {
        lock(&self.t_wait).snapshot()
    }

    /// Renders counters and histogram summaries as an aligned text
    /// table (for reports and `reproduce`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (key, n) in self.counters() {
            let _ = writeln!(s, "  {key:<28} {n:>10}");
        }
        for (key, n) in self.gauges() {
            let _ = writeln!(s, "  {key:<28} {n:>10} (gauge)");
        }
        for (name, h) in [
            ("recovery_latency", self.recovery_latency()),
            ("t_wait", self.t_wait()),
        ] {
            if h.count() > 0 {
                let _ = writeln!(
                    s,
                    "  {name:<28} n={} mean={:.1?} p95={:.1?} max={:.1?}",
                    h.count(),
                    h.mean(),
                    h.percentile(0.95),
                    h.max()
                );
            }
        }
        s
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&self, _at_nanos: u64, _host: lbrm_wire::HostId, event: &ProtocolEvent) {
        self.counters[event.key_index()].fetch_add(1, Ordering::Relaxed);
        let (hist, nanos) = match event {
            ProtocolEvent::Recovered { latency_nanos, .. } => {
                (&self.recovery_latency, *latency_nanos)
            }
            ProtocolEvent::TWaitUpdated { t_wait_nanos } => (&self.t_wait, *t_wait_nanos),
            _ => return,
        };
        let mut h = lock(hist);
        // The first sample reserves the whole reservoir: later ones
        // never allocate.
        if h.reservoir.capacity() == 0 {
            h.reservoir.reserve_exact(REGISTRY_RESERVOIR);
        }
        h.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbrm_wire::Seq;

    #[test]
    fn registry_counts_and_feeds_histograms() {
        let reg = MetricsRegistry::default();
        for i in 1..=4u64 {
            reg.record(
                i,
                lbrm_wire::HostId(1),
                &ProtocolEvent::Recovered {
                    seq: Seq(i as u32),
                    latency_nanos: i * 100,
                },
            );
        }
        reg.record(
            9,
            lbrm_wire::HostId(1),
            &ProtocolEvent::TWaitUpdated { t_wait_nanos: 5000 },
        );
        assert_eq!(reg.counter("recovered"), 4);
        assert_eq!(reg.counter("t_wait_updated"), 1);
        let h = reg.recovery_latency();
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Duration::from_nanos(250));
        assert_eq!(h.max(), Duration::from_nanos(400));
        assert_eq!(reg.t_wait().samples(), vec![Duration::from_nanos(5000)]);
        let table = reg.render();
        assert!(table.contains("recovered"));
        assert!(table.contains("recovery_latency"));
    }

    /// Exact below the reservoir; bounded, with exact count/max, above.
    #[test]
    fn registry_histograms_are_exact_then_bounded() {
        let (reg, mut exact) = (MetricsRegistry::default(), Histogram::default());
        let total = REGISTRY_RESERVOIR + 1_000;
        for n in 0..total as u64 {
            if n == 1_000 {
                let below_cap = reg.recovery_latency();
                assert_eq!(below_cap.samples(), exact.snapshot().samples());
            }
            let (seq, latency_nanos) = (Seq(0), n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
            exact.record(latency_nanos);
            let ev = ProtocolEvent::Recovered { seq, latency_nanos };
            reg.record(n, lbrm_wire::HostId(1), &ev);
        }
        let h = reg.recovery_latency();
        assert!(h.is_sampled() && h.max() == exact.snapshot().max());
        assert_eq!((h.samples().len(), h.count()), (REGISTRY_RESERVOIR, total));
    }

    static DEPTH: GaugeTable = GaugeTable {
        root: "sim",
        rows: &["queue_depth", "queue_depth_max"],
        hide_zero: false,
    };
    static BACKLOG: GaugeTable = GaugeTable {
        root: "sim.link",
        rows: &["tail_in_backlog_max_ns", "tail_out_backlog_max_ns"],
        hide_zero: true,
    };

    /// Attached rows are read in place, under `<root>[.<label>].<row>`,
    /// and a `hide_zero` table lists only the rows that moved.
    #[test]
    fn attached_gauges_are_read_in_place() {
        let reg = MetricsRegistry::default();
        assert_eq!(reg.gauge("sim.queue_depth_max"), 0);
        let (depth, link) = (
            Arc::new(Gauges::new(&DEPTH)),
            Arc::new(Gauges::new(&BACKLOG)),
        );
        reg.attach("", depth.clone());
        reg.attach("s1", link.clone());
        depth.set(1, 17);
        depth.set(1, 23);
        link.add(1, 5);
        link.add(1, 2);
        assert_eq!(reg.gauge("sim.queue_depth_max"), 23);
        assert_eq!(reg.gauge("sim.link.s1.tail_out_backlog_max_ns"), 7);
        assert_eq!(reg.gauge("sim.link.s10.tail_out_backlog_max_ns"), 0);
        let listed: Vec<_> = reg.gauges().into_iter().collect();
        assert_eq!(
            listed,
            [
                ("sim.link.s1.tail_out_backlog_max_ns".to_owned(), 7),
                ("sim.queue_depth".to_owned(), 0),
                ("sim.queue_depth_max".to_owned(), 23),
            ]
        );
        assert!(reg
            .render()
            .contains("  sim.queue_depth_max                  23 (gauge)\n"));
    }

    /// Counting is one atomic add per record: threads sharing a registry
    /// lose nothing.
    #[test]
    fn concurrent_records_give_exact_totals() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 100_000;
        let reg = Arc::new(MetricsRegistry::default());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        reg.record(t, lbrm_wire::HostId(t), &ProtocolEvent::FreshnessLost);
                    }
                    let ev = ProtocolEvent::GapDetected {
                        first: Seq(1),
                        last: Seq(1),
                    };
                    reg.record(t, lbrm_wire::HostId(t), &ev);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(reg.counter("freshness_lost"), THREADS * PER_THREAD);
        assert_eq!(reg.counter("gap_detected"), THREADS);
        assert_eq!(reg.counter("no_such_key"), 0);
        assert_eq!(reg.counters().len(), 2);
    }

    #[test]
    fn streaming_histogram_is_exact_under_capacity() {
        let mut exact = Histogram::default();
        let mut stream = StreamingHistogram::new(100);
        for n in (1..=100u64).rev() {
            exact.record(n * 7);
            stream.record(n * 7);
        }
        let (e, s) = (exact.snapshot(), stream.snapshot());
        assert!(!s.is_sampled());
        assert_eq!(s.count(), e.count());
        assert_eq!(s.samples(), e.samples());
        assert_eq!(s.mean(), e.mean());
        assert_eq!(s.percentile(0.95), e.percentile(0.95));
        assert_eq!(s.max(), e.max());
    }

    #[test]
    fn streaming_histogram_keeps_exact_totals_when_sampled() {
        let mut stream = StreamingHistogram::new(16);
        for n in 1..=10_000u64 {
            stream.record(n);
        }
        let s = stream.snapshot();
        assert!(s.is_sampled());
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.samples().len(), 16);
        // Mean and max come from running totals, not the reservoir.
        assert_eq!(s.mean(), Duration::from_nanos(5000));
        assert_eq!(s.max(), Duration::from_nanos(10_000));
        // Percentile is a reservoir estimate but stays within range.
        let p50 = s.percentile(0.5).as_nanos() as u64;
        assert!((1..=10_000).contains(&p50));
        // Buckets hold every sample.
        assert_eq!(stream.bucket_counts().iter().sum::<u64>(), 10_000);
        assert!(stream.approx_bytes() < 2048, "fixed-size memory");
        // Determinism: an identical run yields an identical snapshot.
        let mut again = StreamingHistogram::new(16);
        for n in 1..=10_000u64 {
            again.record(n);
        }
        assert_eq!(again.snapshot().samples(), s.samples());
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut h = Histogram::default();
        for n in 1..=100u64 {
            h.record(n);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), Duration::from_nanos(50));
        assert_eq!(s.percentile(0.95), Duration::from_nanos(95));
        assert_eq!(s.percentile(1.0), Duration::from_nanos(100));
        assert_eq!(s.percentile(0.0), Duration::from_nanos(1));
        assert_eq!(HistogramSnapshot::default().percentile(0.5), Duration::ZERO);
        assert_eq!(HistogramSnapshot::default().mean(), Duration::ZERO);
    }
}
