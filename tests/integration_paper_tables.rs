//! Golden outputs of the paper's design-space experiments: the JSON rows of
//! Table I (the paper's point and each standard's quick code), Table II (the
//! paper's pair and each standard's quick pair) and Table III, and the
//! minimum-parallelism search of the `design_space_exploration` example.
//! Each set is pinned by its row count and an FNV-1a hash over its rows, so
//! a change that moves any byte of a paper table fails here.

use code_tables::Standard;
use decoder_bench::{table1_code, table2_codes, table3_rows};
use fec_json::ToJson;
use noc_decoder::dse::{Table1Row, Table2Row};
use noc_decoder::{
    CodeRate, DecoderConfig, DesignSpaceExplorer, MappingStore, QcLdpcCode, StandardCode,
};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// FNV-1a over `texts`, each one as its length followed by its bytes.
fn text_hash(texts: impl IntoIterator<Item = String>) -> u64 {
    fnv1a(texts.into_iter().flat_map(|text| {
        std::iter::once(text.len() as u64).chain(text.into_bytes().into_iter().map(u64::from))
    }))
}

/// The row count and [`text_hash`] of the `to_json()` rows, in order.
fn rows_hash<T: ToJson>(rows: &[T]) -> (usize, u64) {
    (
        rows.len(),
        text_hash(rows.iter().map(|row| row.to_json().to_string())),
    )
}

/// Table I at the paper's point: WiMAX `N = 2304`, `r = 1/2`.
const TABLE1_PAPER: (usize, u64) = (72, 0xb0cc_609e_5081_43db);

/// Table I on `table1_code(standard, true)`, per standard flag.
const TABLE1_QUICK: [(&str, usize, u64); 5] = [
    ("wimax", 72, 0x6916_f5d0_09e5_ea09),
    ("80211n", 72, 0x5c1f_4606_4937_4f59),
    ("lte", 72, 0x8a6f_51a4_f8a9_7154),
    ("80222", 72, 0x2a3f_8c99_ffb3_55ed),
    ("dvbrcs", 72, 0xe9b3_d524_a40b_bab0),
];

/// Table II for the paper's pair: LDPC `N = 2304` and CTC 2400 couples.
const TABLE2_PAPER: (usize, u64) = (3, 0x3743_d716_4c88_2e57);

/// Table II on `table2_codes(standard, true)`, per standard flag.
const TABLE2_QUICK: [(&str, usize, u64); 5] = [
    ("wimax", 3, 0xb825_bba5_59cd_0119),
    ("80211n", 3, 0xc4be_1b0a_5ab1_d3fc),
    ("lte", 3, 0xbb7b_36c0_10d1_3118),
    ("80222", 3, 0x9496_89f5_f446_5165),
    ("dvbrcs", 3, 0xf954_ad0a_e1a4_653c),
];

/// Table III.
const TABLE3: (usize, u64) = (13, 0x2f85_a7eb_1fa1_9225);

/// The minimum `P` in `16..=36` (step 2) reaching each standard's
/// requirement on WiMAX `N = 1152`, `r = 1/2`, and the hash of the search
/// result's `Debug` text.
const MINIMUM_P: [(&str, Option<usize>, u64); 5] = [
    ("wimax", Some(30), 0xedee_770d_9a02_1b76),
    ("80211n", None, 0x6bf7_10ee_a0d2_8a2b),
    ("lte", None, 0x6bf7_10ee_a0d2_8a2b),
    ("80222", Some(16), 0x11c1_45c6_e9ed_1551),
    ("dvbrcs", Some(16), 0x11c1_45c6_e9ed_1551),
];

fn explorer() -> DesignSpaceExplorer {
    DesignSpaceExplorer::new(DecoderConfig::paper_design_point())
}

fn table1(code: &StandardCode) -> Vec<Table1Row> {
    explorer().table1(code, 1, None, |_, _| {}).unwrap()
}

fn table2(ldpc: &StandardCode, turbo: &StandardCode) -> Vec<Table2Row> {
    explorer().table2(ldpc, turbo).unwrap()
}

#[test]
fn paper_table1_reproduces_its_golden_rows() {
    let rows = table1(&table1_code(Standard::Wimax, false));
    assert_eq!(rows_hash(&rows), TABLE1_PAPER);
}

#[test]
fn quick_table1_sweeps_reproduce_their_golden_rows() {
    let hashes: Vec<(&str, usize, u64)> = Standard::all()
        .into_iter()
        .map(|standard| {
            let rows = table1(&table1_code(standard, true));
            let (count, hash) = rows_hash(&rows);
            (standard.flag(), count, hash)
        })
        .collect();
    assert_eq!(hashes, TABLE1_QUICK);
}

#[test]
fn table2_reproduces_its_golden_rows() {
    let (ldpc, turbo) = table2_codes(Standard::Wimax, false);
    assert_eq!(rows_hash(&table2(&ldpc, &turbo)), TABLE2_PAPER);
    let hashes: Vec<(&str, usize, u64)> = Standard::all()
        .into_iter()
        .map(|standard| {
            let (ldpc, turbo) = table2_codes(standard, true);
            let (count, hash) = rows_hash(&table2(&ldpc, &turbo));
            (standard.flag(), count, hash)
        })
        .collect();
    assert_eq!(hashes, TABLE2_QUICK);
}

#[test]
fn table3_reproduces_its_golden_rows() {
    assert_eq!(rows_hash(&table3_rows()), TABLE3);
}

#[test]
fn minimum_parallelism_search_reproduces_its_golden_results() {
    let dse = explorer();
    let code = QcLdpcCode::wimax(1152, CodeRate::R12).unwrap();
    let candidates: Vec<usize> = (16..=36).step_by(2).collect();
    let mappings = MappingStore::new();
    let results: Vec<(&str, Option<usize>, u64)> = Standard::all()
        .into_iter()
        .map(|standard| {
            let target = standard.required_throughput_mbps();
            let found = dse
                .minimum_parallelism(&code, &candidates, target, &mappings)
                .unwrap();
            let pes = found.as_ref().map(|(pes, _)| *pes);
            (standard.flag(), pes, text_hash([format!("{found:?}")]))
        })
        .collect();
    assert_eq!(results, MINIMUM_P);
}
