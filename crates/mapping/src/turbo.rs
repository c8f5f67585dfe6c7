//! Mapping of turbo codes onto NoC nodes.
//!
//! Turbo decoding partitions the frame into `P` contiguous windows, one per
//! SISO (the Turbo NOC framework of refs [16], [17]): trellis section `j`
//! of `N` belongs to SISO `j * P / N`, so the largest window holds
//! `N.div_ceil(P)` sections.  During the first half iteration each SISO
//! produces one extrinsic message per trellis section of its window and
//! sends it to the SISO owning the *interleaved* position; during the
//! second half iteration the extrinsics travel along the inverse
//! permutation.
//!
//! The mapping only depends on the code's [`Interleaver`], so one
//! implementation serves both the duo-binary CTCs of 802.16e and DVB-RCS
//! (one trellis section per *couple*, the ARP permutation) and the binary
//! LTE turbo code (one section per *bit*, the QPP permutation).

use noc_sim::{Message, TrafficTrace};
use wimax_turbo::Interleaver;

/// Which half iteration a traffic trace describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfIteration {
    /// SISO 1 (natural order) producing a-priori information for SISO 2.
    First,
    /// SISO 2 (interleaved order) producing a-priori information for SISO 1.
    Second,
}

/// A mapping of one turbo code, through its borrowed interleaver, onto `P`
/// SISO processing elements.
///
/// # Example
///
/// ```
/// use noc_mapping::TurboMapping;
/// use wimax_turbo::CtcCode;
///
/// let code = CtcCode::wimax(2400)?;
/// let mapping = TurboMapping::new(code.interleaver(), 22);
/// let trace = mapping.traffic_trace(noc_mapping::turbo::HalfIteration::First);
/// assert_eq!(trace.total_messages(), 2400);
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TurboMapping<'a> {
    pes: usize,
    interleaver: &'a Interleaver,
}

impl<'a> TurboMapping<'a> {
    /// Maps a turbo code with the given interleaver onto `pes` SISOs using
    /// contiguous windows of trellis sections.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero or exceeds the section count.
    pub fn new(interleaver: &'a Interleaver, pes: usize) -> Self {
        let n = interleaver.len();
        assert!(pes >= 1, "need at least one PE");
        assert!(pes <= n, "cannot map {n} trellis sections onto {pes} PEs");
        TurboMapping { pes, interleaver }
    }

    /// The SISO whose window holds trellis section `section`.
    fn owner(&self, section: usize) -> usize {
        section * self.pes / self.interleaver.len()
    }

    /// The traffic of one half iteration.
    pub fn traffic_trace(&self, half: HalfIteration) -> TrafficTrace {
        let mut per_source: Vec<Vec<Message>> = vec![Vec::new(); self.pes];
        for k in 0..self.interleaver.len() {
            let (src, location, dst) = match half {
                // natural-order SISOs send extrinsic of section j = k to the
                // PE owning interleaved position pi(j)
                HalfIteration::First => {
                    let p = self.interleaver.permute(k);
                    (self.owner(k), p, self.owner(p))
                }
                // interleaved-order SISOs send extrinsic of position p = k
                // back to the PE owning natural position j = pi^{-1}(p)
                HalfIteration::Second => {
                    let j = self.interleaver.inverse(k);
                    (self.owner(k), j, self.owner(j))
                }
            };
            let seq = per_source[src].len();
            per_source[src].push(Message::new(src, dst, location, seq));
        }
        TrafficTrace::new(per_source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_turbo::CtcCode;

    fn ctc_interleaver(couples: usize) -> Interleaver {
        CtcCode::wimax(couples).unwrap().interleaver().clone()
    }

    /// The trellis sections in the window of `pe`, in natural order.
    fn couples_of(mapping: &TurboMapping, pe: usize) -> Vec<usize> {
        (0..mapping.interleaver.len())
            .filter(|&j| mapping.owner(j) == pe)
            .collect()
    }

    #[test]
    fn windows_are_contiguous_and_balanced() {
        let interleaver = ctc_interleaver(2400);
        let mapping = TurboMapping::new(&interleaver, 22);
        let mut total = 0;
        let mut largest = 0;
        for pe in 0..22 {
            let couples = couples_of(&mapping, pe);
            total += couples.len();
            largest = largest.max(couples.len());
            // contiguity
            for w in couples.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
            // the paper's design: 2400 couples over 22 SISOs ~ 109 each
            assert!(
                couples.len() >= 109 && couples.len() <= 110,
                "pe {pe}: {}",
                couples.len()
            );
        }
        assert_eq!(total, 2400);
        assert_eq!(largest, 110);
    }

    #[test]
    fn the_largest_window_is_the_rounded_up_share() {
        for n in [24, 40, 48, 96, 212, 864, 2400, 6144] {
            let identity = Interleaver::new((0..n).collect()).unwrap();
            for pes in 1..=n.min(70) {
                let mapping = TurboMapping::new(&identity, pes);
                let mut windows = vec![0usize; pes];
                for j in 0..n {
                    windows[mapping.owner(j)] += 1;
                }
                assert_eq!(windows.iter().max(), Some(&n.div_ceil(pes)), "{n} / {pes}");
            }
        }
    }

    #[test]
    fn one_message_per_couple_per_half_iteration() {
        let interleaver = ctc_interleaver(240);
        let mapping = TurboMapping::new(&interleaver, 8);
        for half in [HalfIteration::First, HalfIteration::Second] {
            let t = mapping.traffic_trace(half);
            assert_eq!(t.total_messages(), 240);
            assert!(t.max_destination().unwrap() < 8);
        }
    }

    #[test]
    fn second_half_is_the_inverse_permutation() {
        let interleaver = ctc_interleaver(48);
        let mapping = TurboMapping::new(&interleaver, 4);
        let first = mapping.traffic_trace(HalfIteration::First);
        let second = mapping.traffic_trace(HalfIteration::Second);
        // volumes match and the src/dst multisets are swapped
        assert_eq!(first.total_messages(), second.total_messages());
        assert_eq!(first.remote_messages(), second.remote_messages());
    }

    #[test]
    fn interleaver_spreads_traffic_across_pes() {
        let interleaver = ctc_interleaver(960);
        let t = TurboMapping::new(&interleaver, 16).traffic_trace(HalfIteration::First);
        // The ARP interleaver is designed to scatter couples: most traffic is remote.
        assert!(t.locality() < 0.3, "locality {}", t.locality());
        let busiest = (0..16).map(|p| t.messages(p).len()).max().unwrap();
        assert!((busiest as f64 / (960.0 / 16.0) - 1.0).abs() < 0.1);
    }

    #[test]
    fn owners_cover_range() {
        let interleaver = ctc_interleaver(120);
        let mapping = TurboMapping::new(&interleaver, 5);
        assert_eq!(couples_of(&mapping, 0)[0], 0);
        assert_eq!(couples_of(&mapping, 4).last(), Some(&119));
        assert_eq!(mapping.owner(119), 4);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let _ = TurboMapping::new(&ctc_interleaver(24), 0);
    }

    #[test]
    fn single_pe_is_fully_local() {
        let interleaver = ctc_interleaver(24);
        let t = TurboMapping::new(&interleaver, 1).traffic_trace(HalfIteration::First);
        assert_eq!(t.remote_messages(), 0);
    }

    #[test]
    fn arbitrary_permutation_generates_traffic() {
        // a QPP-style quadratic permutation on 64 sections
        let perm: Vec<usize> = (0..64).map(|i| (7 * i + 16 * i * i) % 64).collect();
        let interleaver = Interleaver::new(perm).unwrap();
        let t = TurboMapping::new(&interleaver, 4).traffic_trace(HalfIteration::First);
        assert_eq!(t.total_messages(), 64);
        assert!(t.max_destination().unwrap() < 4);
        assert!(t.locality() < 1.0);
    }
}
