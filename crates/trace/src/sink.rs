//! [`JsonLinesSink`], the stock capture [`TraceSink`].

use std::io::Write;
use std::sync::Mutex;

use lbrm_wire::HostId;

use crate::{lock, ProtocolEvent, TraceSink};

/// Default event interval between automatic [`JsonLinesSink`] flushes.
pub(crate) const DEFAULT_FLUSH_EVERY: u64 = 1024;

/// Streams events as JSON lines to any writer (a file, a pipe, or an
/// in-memory buffer for tests).
///
/// The sink flushes the writer every
/// [`DEFAULT_FLUSH_EVERY`](JsonLinesSink::new) events (tunable via
/// [`with_flush_every`](JsonLinesSink::with_flush_every)), so a run that
/// crashes mid-way still leaves an almost-complete capture on disk for
/// `trace_doctor` — at worst the tail since the last flush is lost, and
/// a truncated final line is skipped (and counted) by the replay
/// parser.
///
/// The sink also flushes in `Drop`, so a panicking endpoint thread that
/// unwinds the last reference still lands its tail batch on disk —
/// teardown no longer has to reach [`flush`](JsonLinesSink::flush)
/// explicitly for the capture to parse end-to-end. Every sink-initiated
/// flush (periodic, explicit, or drop) is counted; see
/// [`flushes`](JsonLinesSink::flushes).
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    // The writer sits in an `Option` so `into_inner` can move it out
    // from under the `Drop` impl; `None` means "already taken".
    out: Mutex<(Option<W>, u64)>,
    flush_every: u64,
    flushes: std::sync::atomic::AtomicU64,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; one line is written per event, with an automatic
    /// flush every 1024 events.
    pub fn new(writer: W) -> Self {
        Self::with_flush_every(writer, DEFAULT_FLUSH_EVERY)
    }

    /// Wraps `writer`, flushing every `flush_every` events (at least 1,
    /// i.e. flush-per-line).
    pub fn with_flush_every(writer: W, flush_every: u64) -> Self {
        JsonLinesSink {
            out: Mutex::new((Some(writer), 0)),
            flush_every: flush_every.max(1),
            flushes: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Consumes the sink, returning the writer (unflushed: the caller
    /// owns it and its own teardown).
    pub fn into_inner(self) -> W {
        lock(&self.out)
            .0
            .take()
            .expect("writer present until into_inner")
        // `self` drops here; `Drop` sees the taken writer and no-ops.
    }

    /// Flushes the underlying writer. Runs automatically every
    /// `flush_every` events and on drop; experiment teardown may still
    /// call it to put the tail on disk at a deterministic point.
    pub fn flush(&self) {
        let mut out = lock(&self.out);
        out.1 = 0;
        if let Some(w) = out.0.as_mut() {
            self.flushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let _ = w.flush();
        }
    }

    /// Sink-initiated flushes so far (periodic + explicit + drop).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl JsonLinesSink<Vec<u8>> {
    /// An in-memory sink, convenient for tests and reports.
    pub fn buffered() -> Self {
        JsonLinesSink::new(Vec::new())
    }

    /// The lines written so far.
    pub fn contents(&self) -> String {
        match lock(&self.out).0.as_ref() {
            Some(buf) => String::from_utf8_lossy(buf).into_owned(),
            None => String::new(),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        let mut guard = lock(&self.out);
        let (writer, pending) = &mut *guard;
        let Some(w) = writer.as_mut() else { return };
        // A full pipe or closed file is not the protocol's problem.
        let _ = writeln!(w, "{}", event.to_json(at_nanos, host));
        *pending += 1;
        if *pending >= self.flush_every {
            self.flushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let _ = w.flush();
            *pending = 0;
        }
    }
}

impl<W: Write + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        // Flush the tail batch even when the drop happens during a
        // panic unwind on an endpoint thread — the capture must stay
        // parseable without cooperative teardown. A poisoned lock just
        // means the panicking thread held it mid-record; the writer is
        // still there.
        let mut guard = lock(&self.out);
        let (writer, pending) = &mut *guard;
        if let Some(w) = writer.as_mut() {
            if *pending > 0 {
                self.flushes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let _ = w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbrm_wire::Seq;
    use std::sync::Arc;

    fn ev(seq: u32) -> ProtocolEvent {
        ProtocolEvent::DataSent {
            seq: Seq(seq),
            epoch: lbrm_wire::EpochId(0),
        }
    }

    #[test]
    fn json_lines_sink_flushes_periodically() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        struct FlushCounter(StdArc<AtomicUsize>);
        impl Write for FlushCounter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = StdArc::new(AtomicUsize::new(0));
        let sink = JsonLinesSink::with_flush_every(FlushCounter(flushes.clone()), 3);
        for i in 0..7u64 {
            sink.record(i, HostId(1), &ev(i as u32));
        }
        // Events 3 and 6 trip the automatic flush; the tail has not.
        assert_eq!(flushes.load(Ordering::SeqCst), 2);
        sink.flush();
        assert_eq!(flushes.load(Ordering::SeqCst), 3);
        // The explicit flush resets the countdown: three more events
        // trip exactly one more.
        for i in 0..3u64 {
            sink.record(i, HostId(1), &ev(i as u32));
        }
        assert_eq!(flushes.load(Ordering::SeqCst), 4);
    }

    /// A writer that only moves bytes to its backing store on `flush`
    /// and does nothing in `Drop` — unlike `BufWriter`, whose own
    /// drop-flush would mask whether the *sink* flushed.
    struct ExplicitFlushWriter {
        buf: Vec<u8>,
        file: std::fs::File,
    }

    impl Write for ExplicitFlushWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
            self.file.flush()
        }
    }

    #[test]
    fn drop_flushes_the_tail_even_when_the_owning_thread_panics() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lbrm_sink_drop_{}.jsonl", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let sink = Arc::new(JsonLinesSink::with_flush_every(
            ExplicitFlushWriter {
                buf: Vec::new(),
                file,
            },
            1000, // far above the event count: nothing auto-flushes
        ));
        let worker_sink = sink.clone();
        drop(sink); // the panicking thread holds the last reference
        let worker = std::thread::spawn(move || {
            for i in 0..5u64 {
                worker_sink.record(i, HostId(1), &ev(i as u32));
            }
            panic!("endpoint thread dies mid-run");
        });
        assert!(worker.join().is_err(), "thread must have panicked");

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let (records, skipped) = crate::analyze::parse_json_lines(&text);
        assert_eq!(records.len(), 5, "tail batch must survive the panic");
        assert_eq!(skipped, 0, "capture must parse line-for-line");
    }

    #[test]
    fn drop_flush_is_counted_and_into_inner_skips_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        struct FlushCounter(StdArc<AtomicUsize>);
        impl Write for FlushCounter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = StdArc::new(AtomicUsize::new(0));
        let sink = JsonLinesSink::with_flush_every(FlushCounter(flushes.clone()), 100);
        sink.record(1, HostId(1), &ev(1));
        assert_eq!(sink.flushes(), 0);
        drop(sink);
        assert_eq!(flushes.load(Ordering::SeqCst), 1, "drop flushed the tail");

        // An empty tail has nothing to flush on drop.
        let flushes2 = StdArc::new(AtomicUsize::new(0));
        let sink = JsonLinesSink::with_flush_every(FlushCounter(flushes2.clone()), 1);
        sink.record(1, HostId(1), &ev(1)); // flush-per-line: tail empty
        drop(sink);
        assert_eq!(flushes2.load(Ordering::SeqCst), 1, "no extra drop flush");

        // `into_inner` hands the writer back unflushed.
        let flushes3 = StdArc::new(AtomicUsize::new(0));
        let sink = JsonLinesSink::with_flush_every(FlushCounter(flushes3.clone()), 100);
        sink.record(1, HostId(1), &ev(1));
        let _writer = sink.into_inner();
        assert_eq!(flushes3.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::buffered();
        sink.record(1, HostId(7), &ev(10));
        sink.record(2, HostId(8), &ProtocolEvent::FreshnessRestored);
        sink.flush();
        let text = sink.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"data_sent\""));
        assert!(lines[0].contains("\"host\":7"));
        assert!(lines[1].contains("\"event\":\"freshness_restored\""));
    }
}
