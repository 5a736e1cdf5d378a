//! The heartbeat schedule of §2.1, plus the closed-form overhead
//! analysis behind Figures 4–5 and Table 1.
//!
//! The variable scheme clusters heartbeats right after a data packet:
//! the inter-heartbeat time `h` is reset to `h_min` on every data
//! transmission and multiplied by `backoff` after every heartbeat, up to
//! `h_max`. Isolated losses are therefore detected within `h_min`, while
//! an idle source converges to one heartbeat per `h_max` — the best of
//! both worlds the paper quantifies as a ~50× bandwidth saving for DIS
//! terrain. The fixed baseline the paper compares against (one
//! heartbeat every `h_min`, as *wb* session messages behave) is the same
//! schedule with `backoff: 1.0`.
//!
//! The schedule itself is pure arithmetic and emits nothing; each
//! heartbeat the [`crate::sender::Sender`] actually transmits is
//! observable as a [`crate::trace::ProtocolEvent::HeartbeatSent`] event
//! (with its `hb_index`), so heartbeat-overhead experiments can count
//! them through a [`crate::trace::TraceSink`] instead of sniffing
//! packets.

use std::time::Duration;

use crate::time::Time;

/// Parameters of the variable heartbeat scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// First inter-heartbeat interval after a data packet. The paper uses
    /// 250 ms, matching the DIS freshness requirement.
    pub h_min: Duration,
    /// Interval ceiling; the idle-channel heartbeat period. Paper: 32 s.
    pub h_max: Duration,
    /// Multiplier applied to `h` after each heartbeat. Paper: 2.
    pub backoff: f64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            h_min: Duration::from_millis(250),
            h_max: Duration::from_secs(32),
            backoff: 2.0,
        }
    }
}

impl HeartbeatConfig {
    /// Checks the parameters; the error names the first rule broken.
    ///
    /// # Errors
    ///
    /// If `h_min` is zero, `h_max < h_min`, or `backoff < 1`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.h_min == Duration::ZERO {
            Err("h_min must be positive")
        } else if self.h_max < self.h_min {
            Err("h_max must be >= h_min")
        } else if self.backoff >= 1.0 {
            Ok(())
        } else {
            Err("backoff must be >= 1")
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// If [`check`](Self::check) fails.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The variable heartbeat schedule of §2.1.
///
/// Drivers call [`on_data_sent`](Self::on_data_sent) whenever the
/// application transmits, and emit a heartbeat whenever
/// [`next_heartbeat_at`](Self::next_heartbeat_at) passes, confirming
/// with [`on_heartbeat_sent`](Self::on_heartbeat_sent).
///
/// ```
/// use lbrm_core::heartbeat::{HeartbeatConfig, VariableHeartbeat};
/// use lbrm_core::time::Time;
///
/// let mut hb = VariableHeartbeat::new(HeartbeatConfig::default());
/// hb.on_data_sent(Time::ZERO);
/// // Heartbeats fire at 0.25 s, 0.75 s, 1.75 s, ... (Figure 3).
/// let first = hb.next_heartbeat_at().unwrap();
/// assert_eq!(first, Time::from_millis(250));
/// hb.on_heartbeat_sent(first);
/// assert_eq!(hb.next_heartbeat_at().unwrap(), Time::from_millis(750));
/// ```
#[derive(Debug, Clone)]
pub struct VariableHeartbeat {
    config: HeartbeatConfig,
    /// Current inter-heartbeat interval.
    h: Duration,
    /// When the next heartbeat is due (`None` before the first data).
    next_at: Option<Time>,
    /// Heartbeats emitted since the last data packet.
    hb_index: u32,
}

impl VariableHeartbeat {
    /// Creates an idle schedule; nothing is due until the first data
    /// packet.
    pub fn new(config: HeartbeatConfig) -> Self {
        config.validate();
        VariableHeartbeat {
            h: config.h_min,
            config,
            next_at: None,
            hb_index: 0,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &HeartbeatConfig {
        &self.config
    }

    /// Notes a data transmission at `now`: resets `h` to `h_min` and
    /// preempts any pending heartbeat.
    pub fn on_data_sent(&mut self, now: Time) {
        self.h = self.config.h_min;
        self.hb_index = 0;
        self.next_at = Some(now + self.h);
    }

    /// When the next heartbeat should be transmitted.
    pub fn next_heartbeat_at(&self) -> Option<Time> {
        self.next_at
    }

    /// `true` if a heartbeat is due at `now`.
    pub fn due(&self, now: Time) -> bool {
        self.next_at.is_some_and(|t| t <= now)
    }

    /// Notes a heartbeat transmission at `now`; returns the 1-based index
    /// of this heartbeat since the last data packet. Applies the backoff.
    pub fn on_heartbeat_sent(&mut self, now: Time) -> u32 {
        self.hb_index += 1;
        let scaled = self.h.as_secs_f64() * self.config.backoff;
        self.h = Duration::from_secs_f64(scaled.min(self.config.h_max.as_secs_f64()));
        self.next_at = Some(now + self.h);
        self.hb_index
    }

    /// Current inter-heartbeat interval (diagnostics).
    pub fn current_interval(&self) -> Duration {
        self.h
    }
}

/// Closed-form overhead analysis (Figures 4 and 5, Table 1).
pub mod analysis {
    use super::HeartbeatConfig;

    /// Number of heartbeats the *variable* scheme emits between two data
    /// packets `dt` seconds apart (heartbeat exactly at `dt` is preempted
    /// by the next data packet).
    pub fn variable_heartbeats_per_interval(dt: f64, c: &HeartbeatConfig) -> u64 {
        assert!(dt >= 0.0 && dt.is_finite());
        let h_min = c.h_min.as_secs_f64();
        let h_max = c.h_max.as_secs_f64();
        let mut h = h_min;
        let mut t = h;
        let mut n = 0;
        while t < dt {
            n += 1;
            h = (h * c.backoff).min(h_max);
            t += h;
        }
        n
    }

    /// Number of heartbeats the *fixed* scheme (period `h_min`) emits
    /// between two data packets `dt` seconds apart.
    pub fn fixed_heartbeats_per_interval(dt: f64, h: f64) -> u64 {
        assert!(dt >= 0.0 && dt.is_finite() && h > 0.0);
        // Heartbeats fire at h, 2h, ...; the one at exactly dt is
        // preempted by the next data packet.
        let n = (dt / h).ceil() - 1.0;
        n.max(0.0) as u64
    }

    /// Variable-scheme heartbeat rate (packets/s) as a function of the
    /// inter-data interval — one curve of Figure 4.
    pub fn variable_rate(dt: f64, c: &HeartbeatConfig) -> f64 {
        variable_heartbeats_per_interval(dt, c) as f64 / dt
    }

    /// Fixed-scheme heartbeat rate (packets/s) — the other Figure-4 curve.
    pub fn fixed_rate(dt: f64, h: f64) -> f64 {
        fixed_heartbeats_per_interval(dt, h) as f64 / dt
    }

    /// Overhead(Fixed)/Overhead(Variable) — Figure 5 and Table 1. Returns
    /// `f64::INFINITY` when the variable scheme emits no heartbeats but
    /// the fixed scheme does, and 1.0 when neither emits any.
    pub fn overhead_ratio(dt: f64, c: &HeartbeatConfig) -> f64 {
        let fixed = fixed_heartbeats_per_interval(dt, c.h_min.as_secs_f64()) as f64;
        let variable = variable_heartbeats_per_interval(dt, c) as f64;
        if variable == 0.0 {
            if fixed == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            fixed / variable
        }
    }

    /// Expected heartbeats per interval when inter-data gaps are
    /// exponentially distributed with mean `mean_dt` — a smoothed variant
    /// that models unsynchronized updates (used alongside the
    /// deterministic count when regenerating Table 1).
    pub fn variable_heartbeats_poisson(mean_dt: f64, c: &HeartbeatConfig) -> f64 {
        let h_min = c.h_min.as_secs_f64();
        let h_max = c.h_max.as_secs_f64();
        let mut h = h_min;
        let mut t = h;
        let mut sum = 0.0;
        // E[N] = Σ_k P(gap > t_k); truncate when negligible.
        while t / mean_dt < 60.0 {
            sum += (-t / mean_dt).exp();
            h = (h * c.backoff).min(h_max);
            t += h;
        }
        sum
    }

    /// Expected fixed-scheme heartbeats per exponential interval.
    pub fn fixed_heartbeats_poisson(mean_dt: f64, h: f64) -> f64 {
        // Σ_{k≥1} exp(-k·h/mean) = 1 / (exp(h/mean) - 1).
        1.0 / ((h / mean_dt).exp() - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::analysis::*;
    use super::*;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig::default()
    }

    #[test]
    fn variable_schedule_follows_paper_figure3() {
        // Data at t=0; heartbeats at 0.25, 0.75, 1.75, 3.75, ... (paper
        // Figure 3's doubling pattern).
        let mut hb = VariableHeartbeat::new(cfg());
        assert_eq!(hb.next_heartbeat_at(), None);
        hb.on_data_sent(Time::ZERO);
        let mut fire_times = Vec::new();
        for _ in 0..6 {
            let now = hb.next_heartbeat_at().unwrap();
            fire_times.push(now.as_secs_f64());
            hb.on_heartbeat_sent(now);
        }
        let expect = [0.25, 0.75, 1.75, 3.75, 7.75, 15.75];
        for (got, want) in fire_times.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn variable_interval_caps_at_h_max() {
        let mut hb = VariableHeartbeat::new(cfg());
        hb.on_data_sent(Time::ZERO);
        for _ in 0..20 {
            let now = hb.next_heartbeat_at().unwrap();
            hb.on_heartbeat_sent(now);
        }
        assert_eq!(hb.current_interval(), Duration::from_secs(32));
        // Steady state: one heartbeat per h_max.
        let before = hb.next_heartbeat_at().unwrap();
        hb.on_heartbeat_sent(before);
        let after = hb.next_heartbeat_at().unwrap();
        assert_eq!(after - before, Duration::from_secs(32));
    }

    #[test]
    fn data_resets_schedule() {
        let mut hb = VariableHeartbeat::new(cfg());
        hb.on_data_sent(Time::ZERO);
        for _ in 0..5 {
            let t = hb.next_heartbeat_at().unwrap();
            hb.on_heartbeat_sent(t);
        }
        assert!(hb.current_interval() > Duration::from_secs(1));
        let now = Time::from_secs(100);
        hb.on_data_sent(now);
        assert_eq!(hb.current_interval(), Duration::from_millis(250));
        assert_eq!(
            hb.next_heartbeat_at(),
            Some(now + Duration::from_millis(250))
        );
    }

    #[test]
    fn hb_index_counts_within_burst() {
        let mut hb = VariableHeartbeat::new(cfg());
        hb.on_data_sent(Time::ZERO);
        assert_eq!(hb.on_heartbeat_sent(Time::from_millis(250)), 1);
        assert_eq!(hb.on_heartbeat_sent(Time::from_millis(750)), 2);
        hb.on_data_sent(Time::from_secs(1));
        assert_eq!(hb.on_heartbeat_sent(Time::from_millis(1250)), 1);
    }

    #[test]
    fn a_backoff_of_one_is_the_fixed_schedule() {
        // Exact instants at h_min = 100 ms too: a tenth of a second is no
        // power-of-two fraction, so the interval's f64 round trip must
        // give back exactly the `Duration` it started from.
        for ms in [250, 100] {
            let h = Duration::from_millis(ms);
            let mut hb = VariableHeartbeat::new(HeartbeatConfig {
                h_min: h,
                backoff: 1.0,
                ..cfg()
            });
            hb.on_data_sent(Time::ZERO);
            for i in 1..=8 {
                let t = hb.next_heartbeat_at().unwrap();
                assert_eq!(t, Time::from_millis(ms * u64::from(i)));
                assert_eq!(hb.on_heartbeat_sent(t), i);
                assert_eq!(hb.current_interval(), h);
            }
        }
    }

    #[test]
    fn due_respects_clock() {
        let mut hb = VariableHeartbeat::new(cfg());
        assert!(!hb.due(Time::from_secs(100)));
        hb.on_data_sent(Time::ZERO);
        assert!(!hb.due(Time::from_millis(249)));
        assert!(hb.due(Time::from_millis(250)));
    }

    #[test]
    #[should_panic(expected = "h_max must be >= h_min")]
    fn config_validation() {
        VariableHeartbeat::new(HeartbeatConfig {
            h_min: Duration::from_secs(2),
            h_max: Duration::from_secs(1),
            backoff: 2.0,
        });
    }

    #[test]
    fn check_names_the_first_broken_rule() {
        let ok = HeartbeatConfig::default();
        assert_eq!(ok.check(), Ok(()));
        let with = |edit: fn(&mut HeartbeatConfig)| {
            let mut c = ok;
            edit(&mut c);
            c.check()
        };
        assert_eq!(
            with(|c| c.h_min = Duration::ZERO),
            Err("h_min must be positive")
        );
        assert_eq!(
            with(|c| c.h_max = Duration::ZERO),
            Err("h_max must be >= h_min")
        );
        assert_eq!(with(|c| c.backoff = 0.5), Err("backoff must be >= 1"));
        assert_eq!(with(|c| c.backoff = f64::NAN), Err("backoff must be >= 1"));
    }

    // ----- analysis (Figures 4/5, Table 1) -----

    #[test]
    fn variable_count_dt120_matches_paper() {
        // The paper's marked point: dt = 120 s → ratio ≈ 53.4.
        let c = cfg();
        assert_eq!(variable_heartbeats_per_interval(120.0, &c), 9);
        assert_eq!(fixed_heartbeats_per_interval(120.0, 0.25), 479);
        let ratio = overhead_ratio(120.0, &c);
        assert!((ratio - 53.2).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn no_heartbeats_when_data_outpaces_h_min() {
        // "If dt < h_min, no heartbeats are transmitted under either
        // scheme" (§2.1.2).
        let c = cfg();
        assert_eq!(variable_heartbeats_per_interval(0.2, &c), 0);
        assert_eq!(fixed_heartbeats_per_interval(0.2, 0.25), 0);
        assert_eq!(overhead_ratio(0.2, &c), 1.0);
    }

    #[test]
    fn variable_never_exceeds_fixed() {
        // §2.1.2: "always less than ... the fixed-heartbeat scheme" (when
        // h_min equals the fixed interval; equal only when both are 0).
        let c = cfg();
        for i in 1..2000 {
            let dt = i as f64 * 0.37;
            let v = variable_heartbeats_per_interval(dt, &c);
            let f = fixed_heartbeats_per_interval(dt, 0.25);
            assert!(v <= f, "dt={dt}: variable {v} > fixed {f}");
        }
    }

    #[test]
    fn rates_approach_paper_asymptotes() {
        // Fig 4: fixed → 1/h_min = 4/s; variable → 1/h_max = 0.03125/s.
        let c = cfg();
        let fixed = fixed_rate(100_000.0, 0.25);
        assert!((fixed - 4.0).abs() < 0.01, "fixed {fixed}");
        let var = variable_rate(100_000.0, &c);
        assert!((var - 1.0 / 32.0).abs() < 0.001, "variable {var}");
    }

    #[test]
    fn ratio_grows_with_backoff() {
        // Table 1's shape: larger backoff, larger savings (using the
        // Poisson-averaged model, which resolves the integer plateaus of
        // the deterministic count).
        let mut prev = 0.0;
        for backoff in [1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            let c = HeartbeatConfig { backoff, ..cfg() };
            let ratio =
                fixed_heartbeats_poisson(120.0, 0.25) / variable_heartbeats_poisson(120.0, &c);
            assert!(
                ratio > prev,
                "backoff {backoff}: ratio {ratio} not > {prev}"
            );
            prev = ratio;
        }
        // Backoff 2 lands in the paper's ballpark (53.3).
        let c = cfg();
        let r2 = fixed_heartbeats_poisson(120.0, 0.25) / variable_heartbeats_poisson(120.0, &c);
        assert!((r2 - 53.0).abs() < 3.0, "ratio at backoff 2: {r2}");
    }

    #[test]
    fn poisson_fixed_matches_series() {
        // Small-h limit: E[N] ≈ mean/h - 1/2.
        let e = fixed_heartbeats_poisson(120.0, 0.25);
        assert!((e - (120.0 / 0.25 - 0.5)).abs() < 0.01, "{e}");
    }
}
