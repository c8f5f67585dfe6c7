//! Monte-Carlo bit/frame error-rate measurement.

use crate::source::hamming_distance;

/// Accumulates bit and frame error counts over a Monte-Carlo run.
///
/// # Example
///
/// ```
/// use fec_channel::ErrorCounter;
///
/// let mut c = ErrorCounter::new();
/// c.record_frame(&[0, 0, 1, 1], &[0, 0, 1, 0]);
/// c.record_frame(&[0, 1], &[0, 1]);
/// assert_eq!(c.bit_errors(), 1);
/// assert_eq!(c.frame_errors(), 1);
/// assert_eq!(c.frames(), 2);
/// assert!((c.ber() - 1.0 / 6.0).abs() < 1e-12);
/// assert!((c.fer() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounter {
    bit_errors: u64,
    bits: u64,
    frame_errors: u64,
    frames: u64,
}

impl ErrorCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decoded frame against the transmitted reference.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn record_frame(&mut self, reference: &[u8], decoded: &[u8]) {
        let errs = hamming_distance(reference, decoded) as u64;
        self.bit_errors += errs;
        self.bits += reference.len() as u64;
        self.frames += 1;
        if errs > 0 {
            self.frame_errors += 1;
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &ErrorCounter) {
        self.bit_errors += other.bit_errors;
        self.bits += other.bits;
        self.frame_errors += other.frame_errors;
        self.frames += other.frames;
    }

    /// Total bit errors observed.
    pub fn bit_errors(&self) -> u64 {
        self.bit_errors
    }

    /// Total bits compared.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total erroneous frames observed.
    pub fn frame_errors(&self) -> u64 {
        self.frame_errors
    }

    /// Total frames compared.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bit error rate (0 if no bits were recorded).
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Frame error rate (0 if no frames were recorded).
    pub fn fer(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frame_errors as f64 / self.frames as f64
        }
    }
}

/// Stopping rules for a Monte-Carlo error-rate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Stop after this many frames regardless of the error count.
    pub max_frames: u64,
    /// Stop early once this many frame errors have been observed (gives a
    /// controlled relative confidence on the FER estimate).
    pub target_frame_errors: u64,
    /// Minimum number of frames to simulate even if the error target is hit.
    pub min_frames: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            max_frames: 10_000,
            target_frame_errors: 50,
            min_frames: 20,
        }
    }
}

impl MonteCarloConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// `min_frames > max_frames` is rejected rather than silently capped at
    /// `max_frames` (the frame budget always wins in [`should_stop`], which
    /// would contradict the `min_frames` documentation), and a zero frame
    /// budget is rejected because a run could never record anything.
    ///
    /// [`should_stop`]: MonteCarloConfig::should_stop
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_frames == 0 {
            return Err("max_frames must be at least 1".into());
        }
        if self.min_frames > self.max_frames {
            return Err(format!(
                "min_frames ({}) exceeds max_frames ({}): the minimum could never be honoured",
                self.min_frames, self.max_frames
            ));
        }
        Ok(())
    }

    /// Returns `true` when a run with the given counter state should stop.
    pub fn should_stop(&self, counter: &ErrorCounter) -> bool {
        if counter.frames() >= self.max_frames {
            return true;
        }
        counter.frames() >= self.min_frames && counter.frame_errors() >= self.target_frame_errors
    }
}

/// How the simulation engine decides that a curve point has simulated
/// enough frames.
///
/// The classic mode is [`FixedBudget`]: the per-point budget and early-stop
/// rules of [`MonteCarloConfig`] apply unchanged, and outputs are
/// byte-identical to every release that predates this enum.
///
/// [`RelativeWidth`] is the adaptive mode: a point keeps running
/// continuation rounds until the Wilson-score confidence interval of its
/// frame error rate is narrow *relative to the estimate* —
/// `half_width / center <= target_rel_width` at the configured two-sided
/// `confidence` — capped by a hard per-point budget of `max_frames`.  Points
/// that reach the target release their budget immediately; points that never
/// see an error have a relative half-width pinned at 1 (see
/// [`crate::stats::wilson_interval`]) and run to the cap.  Round sizes are a
/// pure function of the merged counts, so the adaptive schedule is
/// bit-identical at any worker count and decode batch size.
///
/// [`FixedBudget`]: StopRule::FixedBudget
/// [`RelativeWidth`]: StopRule::RelativeWidth
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StopRule {
    /// Fixed frame budget with optional frame-error early stop: exactly the
    /// [`MonteCarloConfig`] semantics, byte-identical to historical outputs.
    #[default]
    FixedBudget,
    /// Confidence-targeted adaptive sampling.
    RelativeWidth {
        /// Stop once the Wilson relative half-width of the FER estimate is
        /// at or below this value.  Must lie strictly inside `(0, 1)`: a
        /// target of 1 or more would stop before the first error, and 0 can
        /// never be reached.
        target_rel_width: f64,
        /// Two-sided confidence level of the interval, strictly inside
        /// `(0.5, 1)` (e.g. `0.95`).
        confidence: f64,
        /// Hard per-point frame cap; the point stops here even if the width
        /// target was never reached (e.g. zero observed errors).
        max_frames: u64,
    },
}

impl StopRule {
    /// `true` for the adaptive [`RelativeWidth`](StopRule::RelativeWidth)
    /// mode.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StopRule::RelativeWidth { .. })
    }

    /// Checks the rule for degenerate settings, naming the offending field.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency:
    /// `target_rel_width` outside `(0, 1)`, `confidence` outside `(0.5, 1)`,
    /// or a zero frame cap.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StopRule::FixedBudget => Ok(()),
            StopRule::RelativeWidth {
                target_rel_width,
                confidence,
                max_frames,
            } => {
                if !(target_rel_width > 0.0 && target_rel_width < 1.0) {
                    return Err(format!(
                        "target_rel_width must lie strictly inside (0, 1), got \
                         {target_rel_width} (zero-error points have relative half-width 1, \
                         so a target of 1 or more would stop before the first error)"
                    ));
                }
                if !(confidence > 0.5 && confidence < 1.0) {
                    return Err(format!(
                        "confidence must lie strictly inside (0.5, 1), got {confidence}"
                    ));
                }
                if max_frames == 0 {
                    return Err(
                        "adaptive max_frames (the per-point frame cap) must be at least 1".into(),
                    );
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = ErrorCounter::new();
        c.record_frame(&[0, 0, 0, 0], &[0, 0, 0, 0]);
        c.record_frame(&[1, 1, 1, 1], &[1, 0, 1, 0]);
        assert_eq!(c.bits(), 8);
        assert_eq!(c.bit_errors(), 2);
        assert_eq!(c.frames(), 2);
        assert_eq!(c.frame_errors(), 1);
    }

    #[test]
    fn empty_counter_rates_are_zero() {
        let c = ErrorCounter::new();
        assert_eq!(c.ber(), 0.0);
        assert_eq!(c.fer(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = ErrorCounter::new();
        a.record_frame(&[0, 0], &[0, 1]);
        let mut b = ErrorCounter::new();
        b.record_frame(&[0, 0], &[0, 0]);
        a.merge(&b);
        assert_eq!(a.frames(), 2);
        assert_eq!(a.bit_errors(), 1);
    }

    #[test]
    fn stopping_rules() {
        let cfg = MonteCarloConfig {
            max_frames: 10,
            target_frame_errors: 2,
            min_frames: 3,
        };
        let mut c = ErrorCounter::new();
        c.record_frame(&[0], &[1]);
        c.record_frame(&[0], &[1]);
        // error target hit but min_frames not reached yet
        assert!(!cfg.should_stop(&c));
        c.record_frame(&[0], &[0]);
        assert!(cfg.should_stop(&c));
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_inconsistency() {
        assert!(MonteCarloConfig::default().validate().is_ok());
        let inconsistent = MonteCarloConfig {
            max_frames: 10,
            target_frame_errors: 5,
            min_frames: 11,
        };
        let err = inconsistent.validate().unwrap_err();
        assert!(err.contains("min_frames"), "{err}");
        let empty = MonteCarloConfig {
            max_frames: 0,
            target_frame_errors: 5,
            min_frames: 0,
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn stop_rule_validate_rejects_degenerate_adaptive_settings() {
        assert!(StopRule::FixedBudget.validate().is_ok());
        assert!(StopRule::default() == StopRule::FixedBudget);
        let good = StopRule::RelativeWidth {
            target_rel_width: 0.2,
            confidence: 0.95,
            max_frames: 1_000,
        };
        assert!(good.validate().is_ok());

        for bad_target in [0.0, -0.1, 1.0, 1.5, f64::NAN] {
            let err = StopRule::RelativeWidth {
                target_rel_width: bad_target,
                confidence: 0.95,
                max_frames: 1_000,
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("target_rel_width"), "{bad_target}: {err}");
        }
        for bad_confidence in [0.5, 0.2, 1.0, 1.5, f64::NAN] {
            let err = StopRule::RelativeWidth {
                target_rel_width: 0.2,
                confidence: bad_confidence,
                max_frames: 1_000,
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("confidence"), "{bad_confidence}: {err}");
        }
        let err = StopRule::RelativeWidth {
            target_rel_width: 0.2,
            confidence: 0.95,
            max_frames: 0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("max_frames"), "{err}");
    }

    #[test]
    fn max_frames_always_stops() {
        let cfg = MonteCarloConfig {
            max_frames: 2,
            target_frame_errors: 100,
            min_frames: 1,
        };
        let mut c = ErrorCounter::new();
        c.record_frame(&[0], &[0]);
        c.record_frame(&[0], &[0]);
        assert!(cfg.should_stop(&c));
    }
}
