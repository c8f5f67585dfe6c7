//! The multi-standard code catalogue: one [`StandardCode`] per channel code,
//! grouped per [`Standard`] behind the [`StandardRegistry`] trait, and the
//! one constructor of every codec in the workspace.
//!
//! The registry is the single place the evaluation layer (compliance sweep,
//! design-space exploration, BER studies, the decode daemon) asks "which
//! codes does standard X define, and how do I decode them?".  A
//! `(standard, decoder, block)` request goes through
//! [`StandardCode::resolve`], which builds only the code it names, and
//! [`StandardCode::codec`], which picks the decoder configuration and the
//! label.  Both return `Err` for a combination the tables do not define, so
//! a bad request never panics.  Adding a standard means adding a registry
//! implementation and its arms here, not touching the sweeps.

use crate::dvb_rcs::{dvb_rcs_ctc, DVB_RCS_COUPLE_SIZES};
use crate::lte::{lte_block_sizes, LteTurboCode, LteTurboCodec};
use crate::standard::Standard;
use crate::wifi::{wifi_ldpc, wifi_rates, WIFI_BLOCK_LENGTHS};
use crate::wran::{wran_ldpc, wran_rates, WRAN_BLOCK_LENGTHS};
use fec_channel::sim::{DecodedFrame, FecCodec};
use fec_fixed::Llr;
use fec_obs::Registry;
use wimax_ldpc::decoder::{FixedLayeredConfig, FloodingConfig, LayeredConfig};
use wimax_ldpc::{
    wimax_block_lengths, CodeRate, FloodingLdpcCodec, LayeredLdpcCodec, QcLdpcCode,
    QuantizedLayeredLdpcCodec,
};
use wimax_turbo::{CtcCode, ExtrinsicExchange, TurboCodec, TurboDecoderConfig, WIMAX_FRAME_SIZES};

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
                code: LteTurboCode::new(block).map_err(|e| invalid(&e))?,
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
                FloodingLdpcCodec::new(
                    code,
                    FloodingConfig {
                        max_iterations: 10,
                        ..FloodingConfig::default()
                    },
                ),
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
                    TurboCodec::new(code, turbo(exchange)),
                    format!("{standard}-ctc-{}c-{mode}", code.couples()),
                )
            }
            (StandardCode::LteTurbo { code }, DecoderKind::Turbo) => named(
                LteTurboCodec::new(code, TurboDecoderConfig::default()),
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
/// standard-accurate name without touching the underlying adapters.
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

    fn decode_frames(&self, frames: &[&[Llr]], obs: Option<&mut Registry>) -> Vec<DecodedFrame> {
        self.inner.decode_frames(frames, obs)
    }
}

/// A standard's code set: the full list (compliance sweeps) and the corner
/// subset (tests and quick runs).
pub trait StandardRegistry {
    /// The standard this registry describes.
    fn standard(&self) -> Standard;

    /// Every code the standard defines (within this repository's tables).
    fn full_codes(&self) -> Vec<StandardCode>;

    /// The corner cases: smallest and largest codes at the extreme rates.
    fn corner_codes(&self) -> Vec<StandardCode>;

    /// The standard's worst-case (largest) LDPC code, if it defines LDPC.
    fn worst_ldpc(&self) -> Option<StandardCode> {
        self.full_codes()
            .into_iter()
            .filter(|c| c.is_ldpc())
            .max_by_key(|c| c.mapping_units())
    }

    /// The standard's worst-case (largest) turbo code, if it defines turbo.
    fn worst_turbo(&self) -> Option<StandardCode> {
        self.full_codes()
            .into_iter()
            .filter(|c| !c.is_ldpc())
            .max_by_key(|c| c.mapping_units())
    }
}

/// The 802.16e registry: 19 LDPC lengths x 6 rates plus 17 CTC frame sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WimaxRegistry;

impl StandardRegistry for WimaxRegistry {
    fn standard(&self) -> Standard {
        Standard::Wimax
    }

    fn full_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for n in wimax_block_lengths() {
            for rate in CodeRate::all() {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wimax,
                    code: QcLdpcCode::wimax(n, rate).expect("valid WiMAX length"),
                });
            }
        }
        for &couples in &WIMAX_FRAME_SIZES {
            codes.push(StandardCode::WimaxTurbo {
                code: CtcCode::wimax(couples).expect("valid WiMAX frame size"),
            });
        }
        codes
    }

    fn corner_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for n in [576, 2304] {
            for rate in [CodeRate::R12, CodeRate::R56] {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wimax,
                    code: QcLdpcCode::wimax(n, rate).expect("valid WiMAX length"),
                });
            }
        }
        for couples in [24, 2400] {
            codes.push(StandardCode::WimaxTurbo {
                code: CtcCode::wimax(couples).expect("valid WiMAX frame size"),
            });
        }
        codes
    }
}

/// The 802.11n registry: 3 block lengths x 4 rates, LDPC only.
#[derive(Debug, Clone, Copy, Default)]
pub struct WifiRegistry;

impl StandardRegistry for WifiRegistry {
    fn standard(&self) -> Standard {
        Standard::Wifi80211n
    }

    fn full_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for &n in &WIFI_BLOCK_LENGTHS {
            for rate in wifi_rates() {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wifi80211n,
                    code: wifi_ldpc(n, rate).expect("valid 802.11n length"),
                });
            }
        }
        codes
    }

    fn corner_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for n in [648, 1944] {
            for rate in [CodeRate::R12, CodeRate::R56] {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wifi80211n,
                    code: wifi_ldpc(n, rate).expect("valid 802.11n length"),
                });
            }
        }
        codes
    }
}

/// The LTE registry: the representative QPP block sizes, turbo only.
#[derive(Debug, Clone, Copy, Default)]
pub struct LteRegistry;

impl StandardRegistry for LteRegistry {
    fn standard(&self) -> Standard {
        Standard::Lte
    }

    fn full_codes(&self) -> Vec<StandardCode> {
        lte_block_sizes()
            .into_iter()
            .map(|k| StandardCode::LteTurbo {
                code: LteTurboCode::new(k).expect("valid LTE block size"),
            })
            .collect()
    }

    fn corner_codes(&self) -> Vec<StandardCode> {
        [40usize, 6144]
            .into_iter()
            .map(|k| StandardCode::LteTurbo {
                code: LteTurboCode::new(k).expect("valid LTE block size"),
            })
            .collect()
    }
}

/// The 802.22 registry: 6 block lengths x 3 rates, LDPC only.
#[derive(Debug, Clone, Copy, Default)]
pub struct WranRegistry;

impl StandardRegistry for WranRegistry {
    fn standard(&self) -> Standard {
        Standard::Wran80222
    }

    fn full_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for &n in &WRAN_BLOCK_LENGTHS {
            for rate in wran_rates() {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wran80222,
                    code: wran_ldpc(n, rate).expect("valid 802.22 length"),
                });
            }
        }
        codes
    }

    fn corner_codes(&self) -> Vec<StandardCode> {
        let mut codes = Vec::new();
        for n in [384, 2304] {
            for rate in [CodeRate::R12, CodeRate::R34] {
                codes.push(StandardCode::Ldpc {
                    standard: Standard::Wran80222,
                    code: wran_ldpc(n, rate).expect("valid 802.22 length"),
                });
            }
        }
        codes
    }
}

/// The DVB-RCS registry: the twelve couple sizes, duo-binary CTC only.
#[derive(Debug, Clone, Copy, Default)]
pub struct DvbRcsRegistry;

impl StandardRegistry for DvbRcsRegistry {
    fn standard(&self) -> Standard {
        Standard::DvbRcs
    }

    fn full_codes(&self) -> Vec<StandardCode> {
        DVB_RCS_COUPLE_SIZES
            .iter()
            .map(|&couples| StandardCode::DvbRcsTurbo {
                code: dvb_rcs_ctc(couples).expect("valid DVB-RCS couple size"),
            })
            .collect()
    }

    fn corner_codes(&self) -> Vec<StandardCode> {
        [48usize, 864]
            .into_iter()
            .map(|couples| StandardCode::DvbRcsTurbo {
                code: dvb_rcs_ctc(couples).expect("valid DVB-RCS couple size"),
            })
            .collect()
    }
}

/// Returns the registry for `standard`.
pub fn registry_for(standard: Standard) -> Box<dyn StandardRegistry> {
    match standard {
        Standard::Wimax => Box::new(WimaxRegistry),
        Standard::Wifi80211n => Box::new(WifiRegistry),
        Standard::Lte => Box::new(LteRegistry),
        Standard::Wran80222 => Box::new(WranRegistry),
        Standard::DvbRcs => Box::new(DvbRcsRegistry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sizes_match_the_standards() {
        assert_eq!(WimaxRegistry.full_codes().len(), 19 * 6 + 17);
        assert_eq!(WifiRegistry.full_codes().len(), 3 * 4);
        assert_eq!(LteRegistry.full_codes().len(), lte_block_sizes().len());
        assert_eq!(WranRegistry.full_codes().len(), 6 * 3);
        assert_eq!(DvbRcsRegistry.full_codes().len(), 12);
        for standard in Standard::all() {
            let reg = registry_for(standard);
            assert_eq!(reg.standard(), standard);
            assert!(!reg.corner_codes().is_empty());
            for code in reg.corner_codes() {
                assert_eq!(code.standard(), standard);
                assert!(code.info_bits() > 0);
                assert!(code.mapping_units() > 0);
            }
        }
    }

    #[test]
    fn worst_case_codes_are_the_largest() {
        let worst = WimaxRegistry.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 1152); // N = 2304, r = 1/2
        let worst = WifiRegistry.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 972); // N = 1944, r = 1/2
        let worst = LteRegistry.worst_turbo().unwrap();
        assert_eq!(worst.mapping_units(), 6144);
        let worst = WranRegistry.worst_ldpc().unwrap();
        assert_eq!(worst.mapping_units(), 1152); // N = 2304, r = 1/2
        let worst = DvbRcsRegistry.worst_turbo().unwrap();
        assert_eq!(worst.mapping_units(), 864);
        assert!(WifiRegistry.worst_turbo().is_none());
        assert!(LteRegistry.worst_ldpc().is_none());
        assert!(WranRegistry.worst_turbo().is_none());
        assert!(DvbRcsRegistry.worst_ldpc().is_none());
    }

    #[test]
    fn labels_name_the_standard() {
        assert!(WifiRegistry.corner_codes()[0].label().contains("802.11n"));
        assert!(LteRegistry.corner_codes()[0].label().contains("LTE"));
        assert!(WimaxRegistry.corner_codes()[0].label().contains("802.16e"));
        assert!(WranRegistry.corner_codes()[0].label().contains("802.22"));
        assert!(DvbRcsRegistry.corner_codes()[0].label().contains("DVB-RCS"));
    }

    #[test]
    fn dvb_rcs_codec_reuses_the_duo_binary_substrate_with_its_own_name() {
        let code = &DvbRcsRegistry.corner_codes()[0];
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
        let code = &WranRegistry.corner_codes()[0];
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
            let code = &registry_for(standard).corner_codes()[0];
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
        let wifi = &WifiRegistry.corner_codes()[0];
        let q = wifi.codec(q7).unwrap();
        assert!(q.name().contains("q7"), "{}", q.name());
        let lte = &LteRegistry.corner_codes()[0];
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
        assert!(err(Wimax, Ctc(BitLevel), 576).starts_with("invalid block 576 for wimax"));
        assert!(err(Lte, Turbo, 41).starts_with("invalid block 41 for lte"));
        for lambda_bits in [0, 1, 16, u32::MAX] {
            assert_eq!(
                err(Wimax, Quantized { lambda_bits }, 576),
                "\"lambda_bits\" must be in 2..=15"
            );
        }
    }

    /// The mapping flow's row graph on every LDPC code of the five
    /// registries, against a sorted merge of each pair of rows: the listed
    /// weights are those merge counts, and they add up to all other entries
    /// of the row's columns, so no row sharing a column is left out.
    #[test]
    fn every_registry_ldpc_code_has_an_exact_row_adjacency() {
        let shared =
            |a: &[usize], b: &[usize]| a.iter().filter(|c| b.binary_search(c).is_ok()).count();
        for standard in Standard::all() {
            for code in registry_for(standard).full_codes() {
                let StandardCode::Ldpc { code, .. } = code else {
                    continue;
                };
                let h = code.parity_check();
                let cols = h.column_lists();
                let adjacency = wimax_ldpc::TannerGraph::from_code(&code).weighted_row_adjacency();
                assert_eq!(adjacency.len(), code.m());
                for (a, neigh) in adjacency.iter().enumerate() {
                    assert!(neigh.windows(2).all(|p| p[0].0 < p[1].0), "row {a}");
                    for &(b, w) in neigh {
                        assert!(b != a && w > 0, "row {a}: ({b}, {w})");
                        assert_eq!(w, shared(h.row(a), h.row(b)), "rows {a} and {b}");
                    }
                    let others: usize = h.row(a).iter().map(|&c| cols[c].len() - 1).sum();
                    assert_eq!(
                        neigh.iter().map(|&(_, w)| w).sum::<usize>(),
                        others,
                        "row {a}"
                    );
                }
            }
        }
    }
}
