//! DVB-RCS (EN 301 790) duo-binary convolutional turbo code tables.
//!
//! DVB-RCS defined the duo-binary CTC that 802.16e later adopted: the same
//! 8-state circular recursive systematic convolutional (CRSC) constituent
//! encoder and the same two-step almost-regular-permutation interleaver law
//!
//! ```text
//! P(j) = (P0*j + 1 + Q(j)) mod N        with
//! Q(j) = 0            for j = 0 (mod 4)
//!        N/2 + Q1     for j = 1 (mod 4)
//!        Q2           for j = 2 (mod 4)
//!        N/2 + Q3     for j = 3 (mod 4)
//! ```
//!
//! so the whole functional substrate (`wimax_turbo`'s trellis, SISO,
//! [`CtcCode`], decoder and [`Interleaver::arp`]) is reused unchanged — only
//! the `(P0, Q1, Q2, Q3)` parameter table per couple size is
//! DVB-RCS-specific.
//! The twelve couple sizes cover the standard's ATM (53-byte) and MPEG
//! (188-byte) payloads plus the surrounding signalling frames.
//!
//! Transcription of the parameter quadruples is best-effort (the README's
//! "Supported standards" table lists every standard's substitutions);
//! as with the WiMAX ARP and LTE QPP tables, **every entry is validated to
//! be a bijection at construction time** (by [`Interleaver::new`], the one
//! bijection check of the workspace), so a transcription slip can only
//! shift BER performance marginally, never break correctness.

use wimax_turbo::{ArpParameters, CtcCode, Interleaver, PunctureRate, TurboError};

/// The DVB-RCS interleaver parameter table, expressed in the shared
/// [`ArpParameters`] form: `p0` is the multiplicative parameter `P0` and
/// `p1`/`p2`/`p3` carry the additive `Q1`/`Q2`/`Q3` of the DVB-RCS law
/// (identical to the 802.16e ARP law of [`Interleaver::arp`]).
///
/// One entry per frame size in couples (two information bits each), in
/// ascending order: the standard's couple counts from 12-byte signalling
/// bursts up to the 216-byte MPEG-plus-options frame.  212 couples (424
/// bits) is the 53-byte ATM cell, 752 couples (1504 bits) the 188-byte MPEG
/// packet.
pub const DVB_RCS_ARP_TABLE: [ArpParameters; 12] = [
    ArpParameters {
        couples: 48,
        p0: 11,
        p1: 24,
        p2: 0,
        p3: 24,
    },
    ArpParameters {
        couples: 64,
        p0: 7,
        p1: 34,
        p2: 32,
        p3: 2,
    },
    ArpParameters {
        couples: 212,
        p0: 13,
        p1: 106,
        p2: 108,
        p3: 2,
    },
    ArpParameters {
        couples: 220,
        p0: 23,
        p1: 112,
        p2: 4,
        p3: 116,
    },
    ArpParameters {
        couples: 228,
        p0: 17,
        p1: 116,
        p2: 72,
        p3: 188,
    },
    ArpParameters {
        couples: 424,
        p0: 11,
        p1: 6,
        p2: 8,
        p3: 2,
    },
    ArpParameters {
        couples: 432,
        p0: 13,
        p1: 0,
        p2: 4,
        p3: 8,
    },
    ArpParameters {
        couples: 440,
        p0: 13,
        p1: 10,
        p2: 4,
        p3: 2,
    },
    ArpParameters {
        couples: 752,
        p0: 19,
        p1: 376,
        p2: 224,
        p3: 600,
    },
    ArpParameters {
        couples: 848,
        p0: 19,
        p1: 2,
        p2: 16,
        p3: 6,
    },
    ArpParameters {
        couples: 856,
        p0: 19,
        p1: 428,
        p2: 224,
        p3: 652,
    },
    ArpParameters {
        couples: 864,
        p0: 19,
        p1: 2,
        p2: 16,
        p3: 6,
    },
];

/// Builds the validated DVB-RCS interleaver for a frame size in couples.
///
/// # Errors
///
/// Returns [`TurboError::UnsupportedFrameSize`] for sizes outside the
/// DVB-RCS table, or [`TurboError::InvalidInterleaver`] if the table entry
/// does not describe a permutation.
pub fn dvb_rcs_interleaver(couples: usize) -> Result<Interleaver, TurboError> {
    let params = DVB_RCS_ARP_TABLE
        .iter()
        .find(|p| p.couples == couples)
        .ok_or(TurboError::UnsupportedFrameSize { couples })?;
    Interleaver::arp(*params)
}

/// Builds the rate-1/2 DVB-RCS duo-binary CTC with the given frame size in
/// couples, on the shared 8-state CRSC trellis.
///
/// # Errors
///
/// Same contract as [`dvb_rcs_interleaver`].
pub fn dvb_rcs_ctc(couples: usize) -> Result<CtcCode, TurboError> {
    dvb_rcs_ctc_with_rate(couples, PunctureRate::R12)
}

/// Builds a DVB-RCS CTC with an explicit puncture rate (the standard
/// punctures the same rate-1/3 mother code).
///
/// # Errors
///
/// Same contract as [`dvb_rcs_interleaver`].
pub fn dvb_rcs_ctc_with_rate(couples: usize, rate: PunctureRate) -> Result<CtcCode, TurboError> {
    CtcCode::from_interleaver(dvb_rcs_interleaver(couples)?, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn every_table_entry_is_a_permutation() {
        // The construction-time bijectivity validation, exercised over the
        // whole table: forward and inverse must compose to the identity.
        for n in DVB_RCS_ARP_TABLE.map(|p| p.couples) {
            let pi = dvb_rcs_interleaver(n).unwrap_or_else(|e| panic!("couples {n}: {e}"));
            assert_eq!(pi.len(), n);
            let mut seen = vec![false; n];
            for j in 0..n {
                let p = pi.permute(j);
                assert!(!seen[p], "couples {n}: position {p} hit twice");
                seen[p] = true;
                assert_eq!(pi.inverse(p), j);
            }
        }
    }

    #[test]
    fn table_covers_every_couple_size_once() {
        // strictly ascending: no size twice, in the registry's order
        for pair in DVB_RCS_ARP_TABLE.windows(2) {
            assert!(pair[0].couples < pair[1].couples, "{pair:?}");
        }
        for n in DVB_RCS_ARP_TABLE.map(|p| p.couples) {
            // Every size must admit both the ARP step (N mod 4 == 0) and the
            // CRSC circulation state (N mod 7 != 0).
            assert_eq!(n % 4, 0, "couples {n}");
            assert_ne!(n % 7, 0, "couples {n}");
        }
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        assert!(matches!(
            dvb_rcs_interleaver(240),
            Err(TurboError::UnsupportedFrameSize { couples: 240 })
        ));
        assert!(dvb_rcs_ctc(100).is_err());
    }

    #[test]
    fn atm_and_mpeg_code_dimensions() {
        // 53-byte ATM cell: 424 bits = 212 couples; 188-byte MPEG packet:
        // 1504 bits = 752 couples.
        let atm = dvb_rcs_ctc(212).unwrap();
        assert_eq!(atm.info_bits(), 424);
        assert_eq!(atm.coded_bits(), 848);
        let mpeg = dvb_rcs_ctc(752).unwrap();
        assert_eq!(mpeg.info_bits(), 1504);
        assert_eq!(mpeg.coded_bits(), 3008);
    }

    #[test]
    fn noiseless_roundtrip_through_the_shared_turbo_substrate() {
        use fec_fixed::Llr;
        use wimax_turbo::{TurboDecoder, TurboDecoderConfig};
        let code = dvb_rcs_ctc(64).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDB);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(8.0 * (1.0 - 2.0 * f64::from(b))))
            .collect();
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn explicit_rates_puncture_the_mother_code() {
        let r13 = dvb_rcs_ctc_with_rate(48, PunctureRate::R13).unwrap();
        let r12 = dvb_rcs_ctc(48).unwrap();
        assert_eq!(r13.coded_bits(), 288);
        assert_eq!(r12.coded_bits(), 192);
    }

    proptest! {
        /// The satellite bijectivity property: for every table entry and a
        /// sampled couple-index pair, distinct indices map to distinct
        /// interleaved positions, and the inverse undoes the forward map.
        #[test]
        fn dvb_rcs_interleaver_is_injective(
            entry in 0usize..DVB_RCS_ARP_TABLE.len(),
            a in 0usize..864,
            b in 0usize..864,
        ) {
            let params = DVB_RCS_ARP_TABLE[entry];
            let pi = Interleaver::arp(params).unwrap();
            let (a, b) = (a % params.couples, b % params.couples);
            prop_assume!(a != b);
            prop_assert!(pi.permute(a) != pi.permute(b));
            prop_assert_eq!(pi.inverse(pi.permute(a)), a);
        }
    }
}
