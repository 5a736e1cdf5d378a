//! Direct kernel calls for the traced run: the codec replayed over the
//! packet mix a run captured at its transport (or actor) boundary, and
//! the log store driven the way the logger drives it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lbrm_core::logstore::{LogStore, Retention};
use lbrm_core::time::Time;
use lbrm_wire::{decode_bundle, decode_bytes, encode, encode_into, BundleBuilder, Packet, Seq};

use crate::gen;
use crate::report::Metrics;

/// Long enough that a timer read is noise, short enough to be free.
const KERNEL_BUDGET: Duration = Duration::from_millis(40);

/// Repeats `pass` (which processes `per_pass` items) until the budget
/// is spent; nanoseconds per item.
fn ns_per_item(per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < KERNEL_BUDGET {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * per_pass.max(1) as f64)
}

/// `wire.*`: encode, decode, bundle-encode and bundle-decode cost per
/// packet over `packets`, in the order they were captured.
pub fn wire_replay(packets: &[Packet], m: &mut Metrics) {
    if packets.is_empty() {
        return;
    }
    let mut failures = 0u64;
    let mut buf = BytesMut::with_capacity(2048);
    m.put_one(
        "wire.encode_ns_per_pkt",
        ns_per_item(packets.len(), || {
            for p in packets {
                buf.clear();
                let _ = black_box(encode_into(black_box(p), &mut buf));
            }
        }),
    );
    let frames: Vec<Bytes> = packets.iter().filter_map(|p| encode(p).ok()).collect();
    failures += (packets.len() - frames.len()) as u64;
    let bytes: usize = frames.iter().map(Bytes::len).sum();
    m.put_one(
        "wire.bytes_per_pkt",
        bytes as f64 / frames.len().max(1) as f64,
    );
    let mut bad = 0u64;
    m.put_one(
        "wire.decode_ns_per_pkt",
        ns_per_item(frames.len(), || {
            bad = 0;
            for f in &frames {
                match decode_bytes(f.clone()) {
                    Ok(p) => {
                        black_box(p);
                    }
                    Err(_) => bad += 1,
                }
            }
        }),
    );
    failures += bad;

    let mut bundler = BundleBuilder::with_default_mtu();
    m.put_one(
        "wire.bundle_encode_ns_per_pkt",
        ns_per_item(packets.len(), || {
            for p in packets {
                if let Ok(Some(frame)) = bundler.push(black_box(p)) {
                    black_box(frame.len());
                }
            }
            black_box(bundler.flush().map(<[u8]>::len));
        }),
    );
    let mut bundles: Vec<Bytes> = Vec::new();
    for p in packets {
        if let Ok(Some(frame)) = bundler.push(p) {
            bundles.push(Bytes::copy_from_slice(frame));
        }
    }
    if let Some(frame) = bundler.flush() {
        bundles.push(Bytes::copy_from_slice(frame));
    }
    // A run of one packet goes out bare, not as a bundle.
    bundles.retain(|b| lbrm_wire::is_bundle(b));
    let bundled: usize = bundles
        .iter()
        .map(|b| decode_bundle(b).map_or(0, |v| v.len()))
        .sum();
    if bundled > 0 {
        let mut bad = 0u64;
        m.put_one(
            "wire.bundle_decode_ns_per_pkt",
            ns_per_item(bundled, || {
                bad = 0;
                for b in &bundles {
                    match decode_bundle(b) {
                        Ok(v) => {
                            black_box(v);
                        }
                        Err(_) => bad += 1,
                    }
                }
            }),
        );
        failures += bad;
    }
    m.put_one("wire.decode_fail", failures as f64);
}

/// `core.logstore.*`: in-order inserts under the retention the ingest
/// phase uses (so pruning runs), and 16-sequence span reads over the
/// newest 4 096 entries.
pub fn logstore(seed: u64, m: &mut Metrics) {
    const INSERTS: u32 = 100_000;
    const SPAN: u64 = 16;
    let payloads: Vec<Bytes> = (0..256).map(|i| gen::payload(seed, i)).collect();
    let mut store = LogStore::new(Retention::Count(65_536));
    let t = Instant::now();
    for seq in 1..=INSERTS {
        store.insert(
            Time::from_nanos(u64::from(seq)),
            Seq(seq),
            payloads[seq as usize % payloads.len()].clone(),
        );
    }
    m.put_one(
        "core.logstore.insert_ns",
        t.elapsed().as_nanos() as f64 / f64::from(INSERTS),
    );
    let (mut present, mut missing) = (Vec::new(), Vec::new());
    let spans = 4096 / SPAN;
    let first = INSERTS - 4096 + 1;
    m.put_one(
        "core.logstore.collect_span_ns_per_seq",
        ns_per_item((spans * SPAN) as usize, || {
            for s in 0..spans {
                present.clear();
                missing.clear();
                store.collect_span(
                    Seq(first + (s * SPAN) as u32),
                    SPAN,
                    &mut present,
                    &mut missing,
                );
                black_box(present.len());
            }
        }),
    );
}
