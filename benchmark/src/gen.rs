//! Seeded input generation. Everything a workload feeds the program
//! under test derives from `--seed` through this module.

use bytes::Bytes;

/// The paper's packet size.
pub const PAYLOAD_LEN: usize = 128;

/// splitmix64: small, stable across platforms, good enough for arrival
/// processes and payload bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, salt)`; distinct salts give unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// Due times (nanoseconds from the start of the timed window) of a
/// Poisson arrival process at `rate_per_s`, covering `window_s`.
pub fn poisson_schedule(seed: u64, salt: u64, rate_per_s: f64, window_s: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, salt);
    let mut due = Vec::with_capacity((rate_per_s * window_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate_per_s);
        if t >= window_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// The payload published under sequence number `seq`: its first 12 bytes
/// name `(seed, seq)`, the rest is seeded noise, so the oracle can
/// recompute what any delivery must carry.
pub fn payload(seed: u64, seq: u32) -> Bytes {
    let mut buf = [0u8; PAYLOAD_LEN];
    buf[..8].copy_from_slice(&seed.to_le_bytes());
    buf[8..12].copy_from_slice(&seq.to_le_bytes());
    let mut rng = Rng::new(seed, u64::from(seq) | 1 << 40);
    for chunk in buf[12..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    Bytes::copy_from_slice(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 1, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 1, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 1, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(7, 2, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn poisson_schedule_hits_its_mean_rate() {
        // 20 000 expected arrivals: sigma is ~141, allow 5 sigma.
        let n = poisson_schedule(42, 0, 1000.0, 20.0).len() as f64;
        assert!((n - 20_000.0).abs() < 700.0, "{n}");
        // Gaps are exponential, not periodic: their CV is near 1.
        let due = poisson_schedule(42, 0, 1000.0, 20.0);
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "{cv}");
    }

    #[test]
    fn payloads_are_reproducible_and_distinct() {
        assert_eq!(payload(1, 5), payload(1, 5));
        assert_ne!(payload(1, 5), payload(1, 6));
        assert_ne!(payload(2, 5), payload(1, 5));
        assert_eq!(payload(1, 5).len(), PAYLOAD_LEN);
    }
}
