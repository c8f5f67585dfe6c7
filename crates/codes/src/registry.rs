//! The multi-standard code catalogue: one [`StandardCode`] per channel code,
//! grouped per [`Standard`] by [`Standard::full_codes`] and
//! [`Standard::corner_codes`], and the one constructor of every codec in the
//! workspace.
//!
//! The registry is the single place the evaluation layer (compliance sweep,
//! design-space exploration, BER studies, the decode daemon) asks "which
//! codes does standard X define, and how do I decode them?".  A
//! `(standard, decoder, block)` request goes through
//! [`StandardCode::resolve`], which builds only the code it names, and
//! [`StandardCode::codec`], which picks the decoder configuration and the
//! label.  Both return `Err` for a combination the tables do not define, so
//! a bad request never panics.  Adding a standard means adding its arms
//! here, not touching the sweeps.

use crate::dvb_rcs::{dvb_rcs_ctc, DVB_RCS_ARP_TABLE};
use crate::lte::{lte_block_sizes, lte_turbo_code};
use crate::standard::Standard;
use crate::wifi::{wifi_ldpc, wifi_rates, WIFI_BLOCK_LENGTHS};
use crate::wran::{wran_ldpc, wran_rates, WRAN_BLOCK_LENGTHS};
use fec_channel::sim::{FecCodec, FrameStream};
use fec_obs::Registry;
use wimax_ldpc::decoder::{FixedLayeredConfig, LayeredConfig};
use wimax_ldpc::{
    wimax_block_lengths, CodeRate, LayeredLdpcCodec, QcLdpcCode, QuantizedLayeredLdpcCodec,
};
use wimax_turbo::interleaver::WIMAX_ARP_TABLE;
use wimax_turbo::{
    BinaryTurboDecoder, CtcCode, ExtrinsicExchange, LteTurboCode, TurboDecoder, TurboDecoderConfig,
};

/// One channel code of one standard, carrying everything the functional and
/// architectural layers need.
#[derive(Debug, Clone)]
pub enum StandardCode {
    /// A QC-LDPC code (802.16e, 802.11n or 802.22).
    Ldpc {
        /// The standard the code belongs to.
        standard: Standard,
        /// The expanded code.
        code: QcLdpcCode,
    },
    /// The 802.16e double-binary CTC.
    WimaxTurbo {
        /// The code.
        code: CtcCode,
    },
    /// The LTE rate-1/3 binary turbo code.
    LteTurbo {
        /// The code.
        code: LteTurboCode,
    },
    /// The DVB-RCS duo-binary CTC (same trellis as 802.16e, its own
    /// interleaver parameter table).
    DvbRcsTurbo {
        /// The code.
        code: CtcCode,
    },
}

impl StandardCode {
    /// The standard this code belongs to.
    pub fn standard(&self) -> Standard {
        match self {
            StandardCode::Ldpc { standard, .. } => *standard,
            StandardCode::WimaxTurbo { .. } => Standard::Wimax,
            StandardCode::LteTurbo { .. } => Standard::Lte,
            StandardCode::DvbRcsTurbo { .. } => Standard::DvbRcs,
        }
    }

    /// Human-readable label, e.g. `"802.11n LDPC 1944 r=5/6"`.
    pub fn label(&self) -> String {
        match self {
            StandardCode::Ldpc { standard, code } => {
                format!("{} LDPC {} r={}", standard.name(), code.n(), code.rate())
            }
            StandardCode::WimaxTurbo { code } => {
                format!("802.16e DBTC {} r=1/2", code.info_bits())
            }
            StandardCode::LteTurbo { code } => {
                format!("LTE TC K={} r=1/3", code.info_bits())
            }
            StandardCode::DvbRcsTurbo { code } => {
                format!("DVB-RCS CTC {} r=1/2", code.info_bits())
            }
        }
    }

    /// Number of information bits per frame.
    pub fn info_bits(&self) -> usize {
        match self {
            StandardCode::Ldpc { code, .. } => code.k(),
            StandardCode::WimaxTurbo { code } | StandardCode::DvbRcsTurbo { code } => {
                code.info_bits()
            }
            StandardCode::LteTurbo { code } => code.info_bits(),
        }
    }

    /// True for LDPC codes (they run on the layered datapath and the LDPC
    /// NoC mapping; turbo codes run on the SISO datapath).
    pub fn is_ldpc(&self) -> bool {
        matches!(self, StandardCode::Ldpc { .. })
    }

    /// The number of units the architectural mapping distributes over PEs:
    /// parity checks for LDPC, trellis sections for turbo (couples for the
    /// duo-binary CTC, bits for the binary LTE code).
    pub fn mapping_units(&self) -> usize {
        match self {
            StandardCode::Ldpc { code, .. } => code.m(),
            StandardCode::WimaxTurbo { code } | StandardCode::DvbRcsTurbo { code } => {
                code.couples()
            }
            StandardCode::LteTurbo { code } => code.info_bits(),
        }
    }

    /// The code of `standard` that `decoder` runs at size `block`: the
    /// rate-1/2 LDPC code of length `block` for the LDPC decoders, the LTE
    /// turbo code of `block` information bits, or the CTC of `block`
    /// couples.  Only that one code is built.
    ///
    /// # Errors
    ///
    /// `decoder` does not fit `standard`, or `block` is not one of the
    /// standard's sizes for it.
    pub fn resolve(standard: Standard, decoder: DecoderKind, block: usize) -> Result<Self, String> {
        let invalid = |e: &dyn std::fmt::Debug| {
            format!("invalid block {block} for {}: {e:?}", standard.flag())
        };
        let ldpc = matches!(
            decoder,
            DecoderKind::Layered | DecoderKind::Flooding | DecoderKind::Quantized { .. }
        );
        Ok(match (standard, decoder) {
            (Standard::Wimax, _) if ldpc => StandardCode::Ldpc {
                standard,
                code: QcLdpcCode::wimax(block, CodeRate::R12).map_err(|e| invalid(&e))?,
            },
            (Standard::Wifi80211n, _) if ldpc => StandardCode::Ldpc {
                standard,
                code: wifi_ldpc(block, CodeRate::R12).map_err(|e| invalid(&e))?,
            },
            (Standard::Wran80222, _) if ldpc => StandardCode::Ldpc {
                standard,
                code: wran_ldpc(block, CodeRate::R12).map_err(|e| invalid(&e))?,
            },
            (Standard::Wimax, DecoderKind::Ctc(_)) => StandardCode::WimaxTurbo {
                code: CtcCode::wimax(block).map_err(|e| invalid(&e))?,
            },
            (Standard::DvbRcs, DecoderKind::Ctc(_)) => StandardCode::DvbRcsTurbo {
                code: dvb_rcs_ctc(block).map_err(|e| invalid(&e))?,
            },
            (Standard::Lte, DecoderKind::Turbo) => StandardCode::LteTurbo {
                code: lte_turbo_code(block).map_err(|e| invalid(&e))?,
            },
            _ => return Err(not_available(standard)),
        })
    }

    /// Builds `decoder` for this code behind the unified [`FecCodec`]
    /// interface, labelled `<standard>-ldpc-n<n>-<schedule>`,
    /// `<standard>-ctc-<couples>c-<exchange>` or `lte-turbo-k<k>`.
    ///
    /// # Errors
    ///
    /// `decoder` does not fit this code, or its `lambda_bits` is outside
    /// `2..=15`.
    pub fn codec(&self, decoder: DecoderKind) -> Result<Box<dyn FecCodec>, String> {
        let standard = self.standard().flag();
        let turbo = |exchange| TurboDecoderConfig {
            exchange,
            ..TurboDecoderConfig::default()
        };
        Ok(match (self, decoder) {
            (StandardCode::Ldpc { code, .. }, DecoderKind::Layered) => named(
                LayeredLdpcCodec::new(code, LayeredConfig::default()),
                format!("{standard}-ldpc-n{}-layered", code.n()),
            ),
            (StandardCode::Ldpc { code, .. }, DecoderKind::Flooding) => named(
                LayeredLdpcCodec::flooding(code, LayeredConfig::default()),
                format!("{standard}-ldpc-n{}-flooding", code.n()),
            ),
            (StandardCode::Ldpc { code, .. }, DecoderKind::Quantized { lambda_bits }) => {
                if !(2..=15).contains(&lambda_bits) {
                    return Err("\"lambda_bits\" must be in 2..=15".to_string());
                }
                named(
                    QuantizedLayeredLdpcCodec::new(
                        code,
                        FixedLayeredConfig::default().with_lambda_bits(lambda_bits),
                    ),
                    format!("{standard}-ldpc-n{}-layered-q{lambda_bits}", code.n()),
                )
            }
            (
                StandardCode::WimaxTurbo { code } | StandardCode::DvbRcsTurbo { code },
                DecoderKind::Ctc(exchange),
            ) => {
                let mode = match exchange {
                    ExtrinsicExchange::SymbolLevel => "symbol",
                    ExtrinsicExchange::BitLevel => "bit",
                };
                named(
                    TurboDecoder::new(code, turbo(exchange)),
                    format!("{standard}-ctc-{}c-{mode}", code.couples()),
                )
            }
            (StandardCode::LteTurbo { code }, DecoderKind::Turbo) => named(
                BinaryTurboDecoder::new(code, TurboDecoderConfig::default()),
                format!("{standard}-turbo-k{}", code.info_bits()),
            ),
            _ => return Err(not_available(self.standard())),
        })
    }
}

/// Which decoder a codec runs.  A `(standard, decoder, block)` triple names
/// at most one codec: [`StandardCode::resolve`] finds its code and
/// [`StandardCode::codec`] builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// Layered normalized min-sum on the f64 reference datapath
    /// (`Itmax = 10`).
    Layered,
    /// Two-phase (flooding) normalized min-sum (`Itmax = 10`).
    Flooding,
    /// Fixed-point layered normalized min-sum, the hardware datapath model
    /// (`Itmax = 10`).
    Quantized {
        /// Width of the λ (and `R`) registers, `2..=15`; the paper uses 7.
        lambda_bits: u32,
    },
    /// The binary Max-Log-MAP turbo decoder of LTE (`Itmax = 8`).
    Turbo,
    /// The duo-binary Max-Log-MAP CTC decoder of 802.16e and DVB-RCS with
    /// the given extrinsic exchange (`Itmax = 8`).
    Ctc(ExtrinsicExchange),
}

fn not_available(standard: Standard) -> String {
    format!("codec is not available for standard {}", standard.flag())
}

fn named<C: FecCodec + 'static>(inner: C, name: String) -> Box<dyn FecCodec> {
    Box::new(NamedCodec { inner, name })
}

/// A [`FecCodec`] reporting the catalogue's label, so every codec carries a
/// standard-accurate name without touching the underlying codecs.
struct NamedCodec<C> {
    inner: C,
    name: String,
}

impl<C: FecCodec> FecCodec for NamedCodec<C> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn info_bits(&self) -> usize {
        self.inner.info_bits()
    }

    fn codeword_bits(&self) -> usize {
        self.inner.codeword_bits()
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.inner.encode(info)
    }

    fn decode_frames(&self, frames: &mut dyn FrameStream, obs: Option<&mut Registry>) {
        self.inner.decode_frames(frames, obs);
    }
}

/// A standard's code sets: the full list (compliance sweeps), the corner
/// subset (tests and quick runs) and its worst-case (largest) codes.
impl Standard {
    /// Every code the standard defines within this repository's tables:
    /// 802.16e's 19 LDPC lengths x 6 rates and 17 CTC frame sizes, 802.11n's
    /// 3 lengths x 4 rates, LTE's representative QPP block sizes, 802.22's
    /// 6 lengths x 3 rates and DVB-RCS's twelve couple sizes.
    pub fn full_codes(self) -> Vec<StandardCode> {
        let mut codes = self.ldpc_table().map_or_else(Vec::new, |(lengths, rates)| {
            self.ldpc_codes(&lengths, &rates)
        });
        if let Some((sizes, build)) = self.turbo_table() {
            codes.extend(sizes.into_iter().map(build));
        }
        codes
    }

    /// The standard's LDPC block lengths and rates, if it defines LDPC.
    fn ldpc_table(self) -> Option<(Vec<usize>, Vec<CodeRate>)> {
        match self {
            Standard::Wimax => Some((wimax_block_lengths(), CodeRate::all().into())),
            Standard::Wifi80211n => Some((WIFI_BLOCK_LENGTHS.into(), wifi_rates().into())),
            Standard::Wran80222 => Some((WRAN_BLOCK_LENGTHS.into(), wran_rates().into())),
            Standard::Lte | Standard::DvbRcs => None,
        }
    }

    /// The standard's turbo sizes (couples, or information bits for LTE:
    /// the code's mapping units) and the builder of their codes, if it
    /// defines turbo.
    fn turbo_table(self) -> Option<(Vec<usize>, BuildTurbo)> {
        match self {
            Standard::Wimax => Some((WIMAX_ARP_TABLE.map(|p| p.couples).into(), wimax_ctc)),
            Standard::Lte => Some((lte_block_sizes(), lte_turbo)),
            Standard::DvbRcs => Some((DVB_RCS_ARP_TABLE.map(|p| p.couples).into(), dvb_rcs_turbo)),
            Standard::Wifi80211n | Standard::Wran80222 => None,
        }
    }

    /// The corner cases: the smallest and largest codes at the extreme
    /// rates.
    pub fn corner_codes(self) -> Vec<StandardCode> {
        match self {
            Standard::Wimax => {
                let mut codes = self.ldpc_codes(&[576, 2304], &[CodeRate::R12, CodeRate::R56]);
                codes.extend([24, 2400].map(wimax_ctc));
                codes
            }
            Standard::Wifi80211n => self.ldpc_codes(&[648, 1944], &[CodeRate::R12, CodeRate::R56]),
            Standard::Lte => [40, 6144].map(lte_turbo).into(),
            Standard::Wran80222 => self.ldpc_codes(&[384, 2304], &[CodeRate::R12, CodeRate::R34]),
            Standard::DvbRcs => [48, 864].map(dvb_rcs_turbo).into(),
        }
    }

    /// The standard's worst-case (largest) LDPC code, if it defines LDPC.
    pub fn worst_ldpc(self) -> Option<StandardCode> {
        self.largest_code(true)
    }

    /// The standard's worst-case (largest) turbo code, if it defines turbo.
    pub fn worst_turbo(self) -> Option<StandardCode> {
        self.largest_code(false)
    }

    /// The code with the most mapping units, the last of equals in
    /// [`full_codes`](Standard::full_codes) order, ranked by the tables
    /// alone: only the winner is built.
    fn largest_code(self, ldpc: bool) -> Option<StandardCode> {
        if !ldpc {
            let (sizes, build) = self.turbo_table()?;
            return sizes.into_iter().max().map(build);
        }
        let (lengths, rates) = self.ldpc_table()?;
        // Check rows: `base_rows` block rows of `z = n / 24` rows each (every
        // LDPC table here has 24 base columns).
        let (n, rate) = lengths
            .iter()
            .flat_map(|&n| rates.iter().map(move |&rate| (n, rate)))
            .max_by_key(|&(n, rate)| n / 24 * rate.base_rows())?;
        self.ldpc_codes(&[n], &[rate]).pop()
    }

    /// The standard's LDPC codes of every length in `lengths` at every rate
    /// in `rates`, length-major.
    fn ldpc_codes(self, lengths: &[usize], rates: &[CodeRate]) -> Vec<StandardCode> {
        let build = match self {
            Standard::Wimax => QcLdpcCode::wimax,
            Standard::Wifi80211n => wifi_ldpc,
            Standard::Wran80222 => wran_ldpc,
            Standard::Lte | Standard::DvbRcs => return Vec::new(),
        };
        lengths
            .iter()
            .flat_map(|&n| rates.iter().map(move |&rate| (n, rate)))
            .map(|(n, rate)| StandardCode::Ldpc {
                standard: self,
                code: build(n, rate).expect("a length and rate of the standard's table"),
            })
            .collect()
    }
}

/// Builds a standard's turbo code of one size.
type BuildTurbo = fn(usize) -> StandardCode;

fn wimax_ctc(couples: usize) -> StandardCode {
    StandardCode::WimaxTurbo {
        code: CtcCode::wimax(couples).expect("valid WiMAX frame size"),
    }
}

fn lte_turbo(k: usize) -> StandardCode {
    StandardCode::LteTurbo {
        code: lte_turbo_code(k).expect("valid LTE block size"),
    }
}

fn dvb_rcs_turbo(couples: usize) -> StandardCode {
    StandardCode::DvbRcsTurbo {
        code: dvb_rcs_ctc(couples).expect("valid DVB-RCS couple size"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_fixed::Llr;

    #[test]
    fn registry_sizes_match_the_standards() {
        assert_eq!(Standard::Wimax.full_codes().len(), 19 * 6 + 17);
        assert_eq!(Standard::Wifi80211n.full_codes().len(), 3 * 4);
        assert_eq!(Standard::Lte.full_codes().len(), lte_block_sizes().len());
        assert_eq!(Standard::Wran80222.full_codes().len(), 6 * 3);
        assert_eq!(Standard::DvbRcs.full_codes().len(), 12);
        for standard in Standard::all() {
            assert!(!standard.corner_codes().is_empty());
            for code in standard.corner_codes() {
                assert_eq!(code.standard(), standard);
                assert!(code.info_bits() > 0);
                assert!(code.mapping_units() > 0);
            }
        }
    }

    #[test]
    fn worst_case_codes_are_the_largest() {
        let worst = Standard::Wimax.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 1152); // N = 2304, r = 1/2
        let worst = Standard::Wifi80211n.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 972); // N = 1944, r = 1/2
        let worst = Standard::Lte.worst_turbo().unwrap();
        assert_eq!(worst.mapping_units(), 6144);
        let worst = Standard::Wran80222.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 1152); // N = 2304, r = 1/2
        let worst = Standard::DvbRcs.worst_turbo().unwrap();
        assert_eq!(worst.mapping_units(), 864);
        assert!(Standard::Wifi80211n.worst_turbo().is_none());
        assert!(Standard::Lte.worst_ldpc().is_none());
        assert!(Standard::Wran80222.worst_turbo().is_none());
        assert!(Standard::DvbRcs.worst_ldpc().is_none());
    }

    #[test]
    fn worst_codes_match_the_pick_over_every_built_code() {
        for standard in Standard::all() {
            for ldpc in [true, false] {
                let built = standard
                    .full_codes()
                    .into_iter()
                    .filter(|c| c.is_ldpc() == ldpc)
                    .max_by_key(StandardCode::mapping_units);
                let picked = if ldpc {
                    standard.worst_ldpc()
                } else {
                    standard.worst_turbo()
                };
                let key = |c: &StandardCode| (c.label(), c.mapping_units(), c.info_bits());
                assert_eq!(
                    picked.as_ref().map(key),
                    built.as_ref().map(key),
                    "{standard:?}, ldpc = {ldpc}"
                );
            }
        }
    }

    #[test]
    fn labels_name_the_standard() {
        assert!(Standard::Wifi80211n.corner_codes()[0]
            .label()
            .contains("802.11n"));
        assert!(Standard::Lte.corner_codes()[0].label().contains("LTE"));
        assert!(Standard::Wimax.corner_codes()[0]
            .label()
            .contains("802.16e"));
        assert!(Standard::Wran80222.corner_codes()[0]
            .label()
            .contains("802.22"));
        assert!(Standard::DvbRcs.corner_codes()[0]
            .label()
            .contains("DVB-RCS"));
    }

    #[test]
    fn dvb_rcs_codec_reuses_the_duo_binary_substrate_with_its_own_name() {
        let code = &Standard::DvbRcs.corner_codes()[0];
        assert!(!code.is_ldpc());
        assert_eq!(code.info_bits(), 96);
        assert_eq!(code.mapping_units(), 48);
        let codec = code.codec(DecoderKind::Ctc(ExtrinsicExchange::BitLevel));
        assert_eq!(codec.unwrap().name(), "dvbrcs-ctc-48c-bit");
        assert!(code
            .codec(DecoderKind::Quantized { lambda_bits: 7 })
            .is_err());
    }

    #[test]
    fn wran_codes_run_both_datapaths() {
        let code = &Standard::Wran80222.corner_codes()[0];
        assert!(code.is_ldpc());
        let layered = code.codec(DecoderKind::Layered).unwrap();
        assert!(layered.name().contains("80222-ldpc-n384"));
        let q = code
            .codec(DecoderKind::Quantized { lambda_bits: 7 })
            .unwrap();
        assert!(q.name().contains("80222"), "{}", q.name());
        assert!(q.name().contains("q7"), "{}", q.name());
    }

    #[test]
    fn codecs_roundtrip_noiselessly() {
        for standard in Standard::all() {
            let code = &standard.corner_codes()[0];
            let decoder = match code {
                StandardCode::Ldpc { .. } => DecoderKind::Layered,
                StandardCode::LteTurbo { .. } => DecoderKind::Turbo,
                StandardCode::WimaxTurbo { .. } | StandardCode::DvbRcsTurbo { .. } => {
                    DecoderKind::Ctc(ExtrinsicExchange::default())
                }
            };
            let codec = code.codec(decoder).unwrap();
            let info: Vec<u8> = (0..codec.info_bits()).map(|i| (i % 2) as u8).collect();
            let cw = codec.encode(&info);
            assert_eq!(cw.len(), codec.codeword_bits());
            let llrs: Vec<Llr> = cw
                .iter()
                .map(|&b| Llr::new(8.0 * (1.0 - 2.0 * f64::from(b))))
                .collect();
            let out = codec.decode(&llrs);
            assert_eq!(out.info_bits, info, "{}", codec.name());
        }
    }

    #[test]
    fn quantized_codec_exists_only_for_ldpc() {
        let q7 = DecoderKind::Quantized { lambda_bits: 7 };
        let wifi = &Standard::Wifi80211n.corner_codes()[0];
        let q = wifi.codec(q7).unwrap();
        assert!(q.name().contains("q7"), "{}", q.name());
        let lte = &Standard::Lte.corner_codes()[0];
        assert!(lte.codec(q7).is_err());
        // A decoder that does not fit a registry code is refused by the
        // constructor too, not only by the resolver.
        assert!(lte.codec(DecoderKind::Layered).is_err());
        assert!(wifi.codec(DecoderKind::Turbo).is_err());
    }

    /// Every `(standard, decoder, block)` that `ber_study` and the decode
    /// daemon run: each builds its labelled codec, round-trips a noiseless
    /// frame and decodes a 5-frame point at 6 dB error-free.  Every other
    /// combination is refused with a reason.
    #[test]
    fn the_catalogue_builds_every_study_codec_and_rejects_the_rest() {
        use fec_channel::sim::{EngineConfig, SimulationEngine};
        use DecoderKind::{Ctc, Flooding, Layered, Quantized, Turbo};
        use ExtrinsicExchange::{BitLevel, SymbolLevel};
        use Standard::{DvbRcs, Lte, Wifi80211n, Wimax, Wran80222};
        let q7 = Quantized { lambda_bits: 7 };
        let cases = [
            (Wimax, Layered, 576, "wimax-ldpc-n576-layered"),
            (Wimax, Flooding, 576, "wimax-ldpc-n576-flooding"),
            (Wimax, q7, 576, "wimax-ldpc-n576-layered-q7"),
            (Wimax, Ctc(SymbolLevel), 240, "wimax-ctc-240c-symbol"),
            (Wimax, Ctc(BitLevel), 240, "wimax-ctc-240c-bit"),
            (Wifi80211n, Layered, 648, "80211n-ldpc-n648-layered"),
            (Wifi80211n, Flooding, 648, "80211n-ldpc-n648-flooding"),
            (Wifi80211n, q7, 648, "80211n-ldpc-n648-layered-q7"),
            (Wran80222, Layered, 480, "80222-ldpc-n480-layered"),
            (Wran80222, Flooding, 480, "80222-ldpc-n480-flooding"),
            (Wran80222, q7, 480, "80222-ldpc-n480-layered-q7"),
            (Lte, Turbo, 1024, "lte-turbo-k1024"),
            (DvbRcs, Ctc(SymbolLevel), 212, "dvbrcs-ctc-212c-symbol"),
            (DvbRcs, Ctc(BitLevel), 212, "dvbrcs-ctc-212c-bit"),
        ];
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 4));
        for (standard, decoder, block, label) in cases {
            let code = StandardCode::resolve(standard, decoder, block).unwrap();
            assert_eq!(code.standard(), standard, "{label}");
            assert_eq!(
                code.is_ldpc(),
                !matches!(decoder, Turbo | Ctc(_)),
                "{label}"
            );
            let codec = code.codec(decoder).unwrap();
            assert_eq!(codec.name(), label);

            let info: Vec<u8> = (0..codec.info_bits()).map(|i| (i % 2) as u8).collect();
            let cw = codec.encode(&info);
            assert_eq!(cw.len(), codec.codeword_bits(), "{label}");
            let llrs: Vec<Llr> = cw
                .iter()
                .map(|&b| Llr::new(8.0 * (1.0 - 2.0 * f64::from(b))))
                .collect();
            assert_eq!(codec.decode(&llrs).info_bits, info, "{label}");

            let point = engine.run_point(codec.as_ref(), 6.0);
            assert_eq!(point.frames, 5, "{label}");
            assert_eq!(point.bit_errors, 0, "{label}");
        }

        let err = |standard, decoder, block| {
            StandardCode::resolve(standard, decoder, block)
                .and_then(|code| code.codec(decoder))
                .map(|codec| codec.name())
                .unwrap_err()
        };
        assert_eq!(
            err(Lte, Layered, 1024),
            "codec is not available for standard lte"
        );
        assert!(err(Wifi80211n, Turbo, 648).contains("not available"));
        assert!(err(Wifi80211n, Ctc(BitLevel), 648).contains("not available"));
        assert!(err(Wimax, Turbo, 240).contains("not available"));
        assert!(err(DvbRcs, q7, 212).contains("not available"));
        assert_eq!(
            err(Wimax, Layered, 577),
            "invalid block 577 for wimax: InvalidBlockLength { n: 577 }"
        );
        // the daemon answers a bad turbo size with these texts
        assert_eq!(
            err(Lte, Turbo, 41),
            "invalid block 41 for lte: UnsupportedBlockSize { k: 41 }"
        );
        assert_eq!(
            err(DvbRcs, Ctc(BitLevel), 50),
            "invalid block 50 for dvbrcs: UnsupportedFrameSize { couples: 50 }"
        );
        assert_eq!(
            err(Wimax, Ctc(BitLevel), 576),
            "invalid block 576 for wimax: UnsupportedFrameSize { couples: 576 }"
        );
        for lambda_bits in [0, 1, 16, u32::MAX] {
            assert_eq!(
                err(Wimax, Quantized { lambda_bits }, 576),
                "\"lambda_bits\" must be in 2..=15"
            );
        }
    }
}
