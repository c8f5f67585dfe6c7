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

/// How the simulation engine decides that a curve point has simulated
/// enough frames.  The rule owns the point's frame budget.
///
/// [`FixedBudget`] simulates exactly `frames` frames per point; its outputs
/// are byte-identical to every earlier fixed-frame release.
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Exactly `frames` frames per point.
    FixedBudget {
        /// The per-point frame count; must be at least 1.
        frames: u64,
    },
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

    /// The most frames a point may simulate: the exact budget of
    /// [`FixedBudget`](StopRule::FixedBudget), the cap of
    /// [`RelativeWidth`](StopRule::RelativeWidth).
    pub fn max_frames(&self) -> u64 {
        match *self {
            StopRule::FixedBudget { frames } => frames,
            StopRule::RelativeWidth { max_frames, .. } => max_frames,
        }
    }

    /// Checks the rule for degenerate settings, naming the offending field.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency:
    /// a zero frame budget, `target_rel_width` outside `(0, 1)`, or
    /// `confidence` outside `(0.5, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StopRule::FixedBudget { frames } => {
                if frames == 0 {
                    return Err("frames (the fixed per-point budget) must be at least 1".into());
                }
                Ok(())
            }
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
    fn validate_accepts_defaults_and_rejects_inconsistency() {
        // 10 000 frames is the engine's default budget.
        assert!(StopRule::FixedBudget { frames: 10_000 }.validate().is_ok());
        let err = StopRule::FixedBudget { frames: 0 }.validate().unwrap_err();
        assert!(err.contains("frames"), "{err}");
    }

    #[test]
    fn stop_rule_validate_rejects_degenerate_adaptive_settings() {
        assert!(!StopRule::FixedBudget { frames: 1 }.is_adaptive());
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
        // Both rules stop a point at their frame budget: the exact count of
        // the fixed rule, the cap of the adaptive one.
        assert_eq!(StopRule::FixedBudget { frames: 2 }.max_frames(), 2);
        let adaptive = StopRule::RelativeWidth {
            target_rel_width: 0.2,
            confidence: 0.95,
            max_frames: 7,
        };
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.max_frames(), 7);
    }
}
