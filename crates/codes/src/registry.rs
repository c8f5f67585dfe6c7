//! The multi-standard code registry: one [`StandardCode`] per channel code,
//! grouped per [`Standard`] behind the [`StandardRegistry`] trait.
//!
//! The registry is the single place the evaluation layer (compliance sweep,
//! design-space exploration, BER studies) asks "which codes does standard X
//! define, and how do I decode them?" — so adding a standard means adding a
//! registry implementation here, not touching the sweeps.

use crate::dvb_rcs::{dvb_rcs_ctc, DVB_RCS_COUPLE_SIZES};
use crate::lte::{lte_block_sizes, LteTurboCode, LteTurboCodec};
use crate::standard::Standard;
use crate::wifi::{wifi_ldpc, wifi_rates, WIFI_BLOCK_LENGTHS};
use crate::wran::{wran_ldpc, wran_rates, WRAN_BLOCK_LENGTHS};
use fec_channel::sim::{DecodedFrame, FecCodec};
use fec_fixed::Llr;
use fec_obs::Registry;
use wimax_ldpc::decoder::{FixedLayeredConfig, LayeredConfig};
use wimax_ldpc::{
    wimax_block_lengths, CodeRate, LayeredLdpcCodec, QcLdpcCode, QuantizedLayeredLdpcCodec,
};
use wimax_turbo::{CtcCode, TurboCodec, TurboDecoderConfig, WIMAX_FRAME_SIZES};

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

    /// Builds the default functional decoder for this code behind the
    /// unified [`FecCodec`] interface (f64 reference datapath for LDPC,
    /// Max-Log-MAP for turbo), with the label prefixed by the standard.
    pub fn codec(&self) -> Box<dyn FecCodec> {
        match self {
            StandardCode::Ldpc { standard, code } => Box::new(NamedCodec::new(
                LayeredLdpcCodec::new(code, LayeredConfig::default()),
                format!("{}-ldpc-n{}-layered", standard.flag(), code.n()),
            )),
            StandardCode::WimaxTurbo { code } => {
                Box::new(TurboCodec::new(code, TurboDecoderConfig::default()))
            }
            StandardCode::LteTurbo { code } => {
                Box::new(LteTurboCodec::new(code, TurboDecoderConfig::default()))
            }
            StandardCode::DvbRcsTurbo { code } => Box::new(NamedCodec::new(
                TurboCodec::new(code, TurboDecoderConfig::default()),
                format!("dvbrcs-ctc-{}c-bit", code.couples()),
            )),
        }
    }

    /// The fixed-point hardware-datapath codec for LDPC codes (`None` for
    /// turbo codes, which model the datapath inside the SISO).
    pub fn quantized_codec(&self) -> Option<Box<dyn FecCodec>> {
        match self {
            StandardCode::Ldpc { standard, code } => Some(Box::new(NamedCodec::new(
                QuantizedLayeredLdpcCodec::new(code, FixedLayeredConfig::default()),
                format!("{}-ldpc-n{}-layered-q7", standard.flag(), code.n()),
            ))),
            _ => None,
        }
    }
}

/// A [`FecCodec`] wrapper overriding the report label, so registry codecs
/// carry standard-accurate names without touching the underlying adapters.
pub struct NamedCodec<C: FecCodec> {
    inner: C,
    name: String,
}

impl<C: FecCodec> NamedCodec<C> {
    /// Wraps `inner`, reporting `name` from [`FecCodec::name`].
    pub fn new(inner: C, name: impl Into<String>) -> Self {
        NamedCodec {
            inner,
            name: name.into(),
        }
    }
}

impl<C: FecCodec> std::fmt::Debug for NamedCodec<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedCodec")
            .field("name", &self.name)
            .finish()
    }
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
        let codec = code.codec();
        assert_eq!(codec.name(), "dvbrcs-ctc-48c-bit");
        assert!(code.quantized_codec().is_none());
    }

    #[test]
    fn wran_codes_run_both_datapaths() {
        let code = &WranRegistry.corner_codes()[0];
        assert!(code.is_ldpc());
        assert!(code.codec().name().contains("80222-ldpc-n384"));
        let q = code.quantized_codec().expect("LDPC has a quantized path");
        assert!(q.name().contains("80222"), "{}", q.name());
        assert!(q.name().contains("q7"), "{}", q.name());
    }

    #[test]
    fn codecs_roundtrip_noiselessly() {
        for standard in Standard::all() {
            let code = &registry_for(standard).corner_codes()[0];
            let codec = code.codec();
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
        let wifi = &WifiRegistry.corner_codes()[0];
        let q = wifi.quantized_codec().unwrap();
        assert!(q.name().contains("q7"), "{}", q.name());
        assert!(LteRegistry.corner_codes()[0].quantized_codec().is_none());
    }
}
