//! Seeded, jittered exponential backoff.
//!
//! Retry loops against the allocation service (`submit --retry`) used
//! to sleep a fixed `retry_after_ms` hint, which synchronises rejected
//! clients into retry stampedes. [`Backoff`] replaces that with the
//! standard exponential-plus-full-jitter schedule, driven by a tiny
//! splitmix64 generator so a given seed always yields the same delay
//! sequence.

use std::time::Duration;

/// Jittered exponential backoff with a deterministic per-seed schedule.
///
/// Attempt `n` sleeps a uniformly random duration in
/// `[base, min(cap, base << n)]` (full jitter with a floor of `base`, so
/// a server-provided hint is always honoured as a minimum).
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    state: u64,
}

impl Backoff {
    /// Creates a schedule starting at `base` and capped at `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap: cap.max(base), attempt: 0, state: seed }
    }

    /// Number of delays handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Returns the next delay in the schedule and advances it.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(20); // 2^20 × base already dwarfs any cap we use
        self.attempt = self.attempt.saturating_add(1);
        let ceiling = self
            .base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
            .min(self.cap)
            .max(self.base);
        let span = ceiling.as_millis().saturating_sub(self.base.as_millis()) as u64;
        if span == 0 {
            return self.base;
        }
        self.base + Duration::from_millis(self.next_u64() % (span + 1))
    }

    /// Resets the attempt counter (e.g. after a successful request) while
    /// keeping the generator state, so later retry bursts still draw from
    /// the same deterministic stream.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    // splitmix64: tiny, full-period, and good enough for jitter.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = Backoff::new(seed, Duration::from_millis(10), Duration::from_millis(500));
        (0..n).map(|_| b.next_delay()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7, 8), schedule(7, 8));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(schedule(7, 8), schedule(8, 8));
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut b = Backoff::new(99, base, cap);
        for attempt in 0..32 {
            let d = b.next_delay();
            assert!(d >= base, "attempt {attempt}: {d:?} below base");
            assert!(d <= cap, "attempt {attempt}: {d:?} above cap");
        }
    }

    #[test]
    fn ceiling_grows_exponentially_until_cap() {
        // With the jitter stream fixed, the *maximum possible* delay per
        // attempt is base<<n capped; sample many draws to observe growth.
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let max_at = |attempt: u32| -> Duration {
            (0..200u64)
                .map(|seed| {
                    let mut b = Backoff::new(seed, base, cap);
                    for _ in 0..attempt {
                        b.next_delay();
                    }
                    b.next_delay()
                })
                .max()
                .unwrap()
        };
        assert_eq!(max_at(0), base, "first attempt is exactly base");
        assert!(max_at(3) > base * 2, "later attempts spread upward");
        assert!(max_at(12) <= cap);
    }

    #[test]
    fn reset_restarts_the_ceiling_but_not_the_stream() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut b = Backoff::new(3, base, cap);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), base, "post-reset first delay is base again");
    }

    #[test]
    fn zero_base_degrades_gracefully() {
        let mut b = Backoff::new(1, Duration::ZERO, Duration::from_millis(100));
        let d = b.next_delay();
        assert!(d <= Duration::from_millis(100));
    }
}
