//! One panicking tracer thread must not take the process's telemetry
//! down: every mutex in `lbrm-trace` guards counters, histograms or a
//! writer, and a thread that died holding one leaves it poisoned for
//! every endpoint and the admin surface sharing the sink.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lbrm_trace::{FanoutSink, JsonLinesSink, MetricsRegistry, ProtocolEvent, TraceSink};
use lbrm_wire::HostId;

/// Panics on its first `write`, then counts the bytes it is handed.
struct PanicsOnce {
    armed: bool,
    written: Arc<AtomicUsize>,
}

impl Write for PanicsOnce {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.armed) {
            panic!("writer blew up mid-record");
        }
        self.written.fetch_add(buf.len(), Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_panicking_tracer_thread_does_not_poison_everyone_elses_telemetry() {
    let written = Arc::new(AtomicUsize::new(0));
    let jsonl = Arc::new(JsonLinesSink::new(PanicsOnce {
        armed: true,
        written: written.clone(),
    }));
    let registry = Arc::new(MetricsRegistry::default());
    // The live doctor's arrangement: one gate serialising a registry and
    // a capture. The panic below happens with the gate *and* the
    // writer's mutex held.
    let fan = Arc::new(FanoutSink::new(vec![
        registry.clone() as Arc<dyn TraceSink>,
        jsonl.clone(),
    ]));

    let on_thread = fan.clone();
    let died = std::thread::spawn(move || {
        on_thread.record(1, HostId(1), &ProtocolEvent::FreshnessLost);
    })
    .join();
    assert!(died.is_err(), "the first write must have panicked");

    // Everyone else carries on: record through the same gate, flush the
    // same writer, snapshot the same registry.
    fan.record(2, HostId(2), &ProtocolEvent::FreshnessLost);
    jsonl.flush();
    assert!(written.load(Ordering::Relaxed) > 0, "second record landed");
    assert_eq!(jsonl.flushes(), 1);
    assert_eq!(registry.counter("freshness_lost"), 2);
    assert_eq!(registry.counters().len(), 1);
    assert!(registry.gauges().is_empty());
    assert_eq!(registry.recovery_latency().count(), 0);
}
