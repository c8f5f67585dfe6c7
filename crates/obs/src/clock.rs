//! Injectable time source for timing spans.
//!
//! This module is the **single audited wall-clock site** in the
//! workspace: `fec-lint`'s `no-wall-clock` rule forbids `Instant` /
//! `SystemTime` everywhere outside `crates/bench` *except this file*.
//! Simulation results must never depend on time, so everything that
//! wants a timestamp takes a `&dyn Clock` — production code injects
//! [`WallClock`], tests inject [`ManualClock`] and stay deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic nanosecond time source.
///
/// `Sync` so a single instance can be shared across pool workers by
/// reference.
pub trait Clock: Sync {
    /// Nanoseconds since an arbitrary (per-instance) origin.
    fn now_ns(&self) -> u64;
}

impl std::fmt::Debug for dyn Clock + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

/// Real monotonic wall clock, anchored at construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // A u64 of nanoseconds covers ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic test clock advanced by hand.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    #[cfg(test)]
    fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_deterministically() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(25);
        c.advance(17);
        assert_eq!(c.now_ns(), 42);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
