//! Mapping of turbo codes onto NoC nodes.
//!
//! Turbo decoding partitions the frame into `P` contiguous windows, one per
//! SISO (the Turbo NOC framework of refs [16], [17]).  During the first half
//! iteration each SISO produces one extrinsic message per trellis section of
//! its window and sends it to the SISO owning the *interleaved* position;
//! during the second half iteration the extrinsics travel along the inverse
//! permutation.
//!
//! The mapping only depends on the code's [`Interleaver`], so one
//! implementation serves both the duo-binary CTCs of 802.16e and DVB-RCS
//! (one trellis section per *couple*, the ARP permutation) and the binary
//! LTE turbo code (one section per *bit*, the QPP permutation).

use crate::MappingQuality;
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

/// A mapping of one turbo code onto `P` SISO processing elements.
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
pub struct TurboMapping {
    pes: usize,
    owner: Vec<usize>,
    interleaver: Interleaver,
}

impl TurboMapping {
    /// Maps a turbo code with the given interleaver onto `pes` SISOs using
    /// contiguous windows of trellis sections.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero or exceeds the section count.
    pub fn new(interleaver: &Interleaver, pes: usize) -> Self {
        let n = interleaver.len();
        assert!(pes >= 1, "need at least one PE");
        assert!(pes <= n, "cannot map {n} trellis sections onto {pes} PEs");
        TurboMapping {
            pes,
            owner: (0..n).map(|j| j * pes / n).collect(),
            interleaver: interleaver.clone(),
        }
    }

    /// Number of SISO processing elements.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Number of trellis sections (couples for the duo-binary CTC, bits for
    /// a single-binary code).
    pub fn sections(&self) -> usize {
        self.owner.len()
    }

    /// The trellis sections assigned to a PE (natural order indices).
    pub fn couples_of(&self, pe: usize) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == pe)
            .map(|(j, _)| j)
            .collect()
    }

    /// Window size of the largest window.
    pub fn max_window(&self) -> usize {
        (0..self.pes)
            .map(|p| self.couples_of(p).len())
            .max()
            .unwrap_or(0)
    }

    /// The traffic of one half iteration.
    pub fn traffic_trace(&self, half: HalfIteration) -> TrafficTrace {
        let n = self.sections();
        let mut per_source: Vec<Vec<Message>> = vec![Vec::new(); self.pes];
        let mut sequence = vec![0usize; self.pes];
        match half {
            HalfIteration::First => {
                // natural-order SISOs send extrinsic of section j to the PE
                // owning interleaved position pi(j)
                for j in 0..n {
                    let src = self.owner[j];
                    let p = self.interleaver.permute(j);
                    let dst = self.owner[p];
                    let seq = sequence[src];
                    sequence[src] += 1;
                    per_source[src].push(Message::new(src, dst, p, seq));
                }
            }
            HalfIteration::Second => {
                // interleaved-order SISOs send extrinsic of position p back to
                // the PE owning natural position j = pi^{-1}(p)
                for p in 0..n {
                    let src = self.owner[p];
                    let j = self.interleaver.inverse(p);
                    let dst = self.owner[j];
                    let seq = sequence[src];
                    sequence[src] += 1;
                    per_source[src].push(Message::new(src, dst, j, seq));
                }
            }
        }
        TrafficTrace::new(per_source)
    }

    /// Quality metrics of the first-half traffic (the two halves are
    /// symmetric in volume).
    pub fn quality(&self) -> MappingQuality {
        let trace = self.traffic_trace(HalfIteration::First);
        let counts: Vec<usize> = (0..self.pes).map(|p| trace.messages(p).len()).collect();
        MappingQuality {
            pes: self.pes,
            total_messages: trace.total_messages(),
            remote_messages: trace.remote_messages(),
            max_per_pe: counts.iter().copied().max().unwrap_or(0),
            min_per_pe: counts.iter().copied().min().unwrap_or(0),
            edge_cut: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_turbo::CtcCode;

    fn ctc_mapping(couples: usize, pes: usize) -> TurboMapping {
        TurboMapping::new(CtcCode::wimax(couples).unwrap().interleaver(), pes)
    }

    #[test]
    fn windows_are_contiguous_and_balanced() {
        let mapping = ctc_mapping(2400, 22);
        let mut total = 0;
        for pe in 0..22 {
            let couples = mapping.couples_of(pe);
            total += couples.len();
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
        assert_eq!(mapping.max_window(), 110);
    }

    #[test]
    fn one_message_per_couple_per_half_iteration() {
        let mapping = ctc_mapping(240, 8);
        for half in [HalfIteration::First, HalfIteration::Second] {
            let t = mapping.traffic_trace(half);
            assert_eq!(t.total_messages(), 240);
            assert!(t.max_destination().unwrap() < 8);
        }
    }

    #[test]
    fn second_half_is_the_inverse_permutation() {
        let mapping = ctc_mapping(48, 4);
        let first = mapping.traffic_trace(HalfIteration::First);
        let second = mapping.traffic_trace(HalfIteration::Second);
        // volumes match and the src/dst multisets are swapped
        assert_eq!(first.total_messages(), second.total_messages());
        assert_eq!(first.remote_messages(), second.remote_messages());
    }

    #[test]
    fn interleaver_spreads_traffic_across_pes() {
        let mapping = ctc_mapping(960, 16);
        let q = mapping.quality();
        // The ARP interleaver is designed to scatter couples: most traffic is remote.
        assert!(q.locality() < 0.3, "locality {}", q.locality());
        assert!((q.balance_ratio() - 1.0).abs() < 0.1);
    }

    #[test]
    fn owners_cover_range() {
        let mapping = ctc_mapping(120, 5);
        assert_eq!(mapping.couples_of(0)[0], 0);
        assert_eq!(mapping.couples_of(4).last(), Some(&119));
        assert_eq!(mapping.pes(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let _ = ctc_mapping(24, 0);
    }

    #[test]
    fn single_pe_is_fully_local() {
        let mapping = ctc_mapping(24, 1);
        assert_eq!(mapping.quality().remote_messages, 0);
    }

    #[test]
    fn arbitrary_permutation_generates_traffic() {
        // a QPP-style quadratic permutation on 64 sections
        let perm: Vec<usize> = (0..64).map(|i| (7 * i + 16 * i * i) % 64).collect();
        let mapping = TurboMapping::new(&Interleaver::new(perm).unwrap(), 4);
        let t = mapping.traffic_trace(HalfIteration::First);
        assert_eq!(t.total_messages(), 64);
        assert!(t.max_destination().unwrap() < 4);
        let q = mapping.quality();
        assert!(q.locality() < 1.0);
    }
}
