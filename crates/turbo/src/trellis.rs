//! The 8-state duo-binary CRSC constituent encoder and its trellis.
//!
//! The constituent code of the WiMAX CTC is a circular recursive systematic
//! convolutional code with feedback polynomial `1 + D + D^3` and parity
//! polynomials `1 + D^2 + D^3` (Y) and `1 + D^3` (W).  The second input bit
//! `B` is additionally injected at the inputs of the first two registers.
//! The state-update equations implemented here are
//!
//! ```text
//! d   = A ^ B ^ s1 ^ s3           (register-1 input / feedback adder)
//! Y   = d ^ s2 ^ s3
//! W   = d ^ s3
//! s1' = d
//! s2' = s1 ^ B
//! s3' = s2
//! ```
//!
//! The encoder and the decoder trellis are both generated from this single
//! transition function, so they are consistent by construction.  The same
//! holds for the binary LTE constituent ([`lte_rsc_step`]): the SISO kernel's
//! branch and incoming-state tables ([`ConstTrellis`]) are built from the two
//! transition functions by `const fn` at compile time.

/// Number of trellis states (3 memory bits) of both constituent codes.
pub const NUM_STATES: usize = 8;

/// Number of input symbols per trellis step (a couple of bits `A`, `B`).
pub const SYMBOLS: usize = 4;

/// Output of one encoder step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutput {
    /// Next encoder state (0..8).
    pub next_state: u8,
    /// First parity bit (polynomial `1 + D^2 + D^3`).
    pub parity_y: u8,
    /// Second parity bit (polynomial `1 + D^3`).
    pub parity_w: u8,
}

/// Advances the constituent encoder by one duo-binary symbol.
///
/// `symbol` encodes the couple as `2*A + B`.
///
/// # Panics
///
/// Panics if `state >= 8` or `symbol >= 4`.
pub const fn step(state: u8, symbol: u8) -> StepOutput {
    assert!((state as usize) < NUM_STATES, "state out of range");
    assert!((symbol as usize) < SYMBOLS, "symbol out of range");
    let s1 = (state >> 2) & 1;
    let s2 = (state >> 1) & 1;
    let s3 = state & 1;
    let a = (symbol >> 1) & 1;
    let b = symbol & 1;

    let d = a ^ b ^ s1 ^ s3;
    let y = d ^ s2 ^ s3;
    let w = d ^ s3;
    let ns1 = d;
    let ns2 = s1 ^ b;
    let ns3 = s2;

    StepOutput {
        next_state: (ns1 << 2) | (ns2 << 1) | ns3,
        parity_y: y,
        parity_w: w,
    }
}

/// The LTE/UMTS 8-state RSC transition (3GPP 36.212 §5.1.3): feedback
/// `1 + D^2 + D^3`, parity `1 + D + D^3`.  Returns `(next state, parity
/// bit)`.
pub const fn lte_rsc_step(state: u8, bit: u8) -> (u8, u8) {
    let r1 = (state >> 2) & 1;
    let r2 = (state >> 1) & 1;
    let r3 = state & 1;
    let d = (bit & 1) ^ r2 ^ r3;
    let parity = d ^ r1 ^ r3;
    ((d << 2) | (r1 << 1) | r2, parity)
}

/// A trellis known at compile time: [`NUM_STATES`] states, each left and
/// entered by `U` branches.
///
/// Branch `(s, u)` leaves state `s` on input symbol `u`.  Its *label*
/// `u * P + parity` indexes the `L = U * P` distinct branch metrics of a
/// trellis step (`P` parity patterns), so a SISO computes each distinct
/// metric once per step and the recursions only index them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstTrellis<const U: usize> {
    /// `next[s][u]`: the state reached from `s` on symbol `u`.
    pub next: [[u8; U]; NUM_STATES],
    /// `label[s][u]`: the branch-metric label of that branch.
    pub label: [[u8; U]; NUM_STATES],
    /// `prev[s]`: `(from state, label)` of the `U` branches entering `s`,
    /// in increasing `(from, u)` order.
    pub prev: [[(u8, u8); U]; NUM_STATES],
}

impl<const U: usize> ConstTrellis<U> {
    /// Derives the incoming-branch table from the outgoing one.
    ///
    /// # Panics
    ///
    /// Panics — at compile time when building a `const` — if a transition
    /// leaves the state range or a state is entered by more than `U`
    /// branches (then another is entered by fewer).
    pub(crate) const fn new(next: [[u8; U]; NUM_STATES], label: [[u8; U]; NUM_STATES]) -> Self {
        let mut prev = [[(0u8, 0u8); U]; NUM_STATES];
        let mut entering = [0usize; NUM_STATES];
        let mut s = 0;
        while s < NUM_STATES {
            let mut u = 0;
            while u < U {
                let to = next[s][u] as usize;
                assert!(to < NUM_STATES, "transition leaves the state range");
                assert!(entering[to] < U, "state entered by more than U branches");
                prev[to][entering[to]] = (s as u8, label[s][u]);
                entering[to] += 1;
                u += 1;
            }
            s += 1;
        }
        ConstTrellis { next, label, prev }
    }
}

/// The duo-binary CRSC trellis of 802.16e and DVB-RCS as a constituent code
/// of the SISO kernel ([`crate::siso::Constituent`]): 8 states, 4 symbols,
/// circular, with its tables built from [`step`] at compile time.  Branch
/// labels are `4u + 2Y + W`.
///
/// # Example
///
/// ```
/// use wimax_turbo::siso::Constituent;
/// use wimax_turbo::DuoBinaryTrellis;
///
/// let t = DuoBinaryTrellis::TRELLIS;
/// // 8 states x 4 symbols = 32 branches, four entering every state
/// assert_eq!(t.next.iter().flatten().count(), 32);
/// assert!(t.prev.iter().all(|entering| entering.len() == 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuoBinaryTrellis;

impl DuoBinaryTrellis {
    pub(crate) const TABLE: ConstTrellis<SYMBOLS> = {
        let mut next = [[0u8; SYMBOLS]; NUM_STATES];
        let mut label = [[0u8; SYMBOLS]; NUM_STATES];
        let mut s = 0;
        while s < NUM_STATES {
            let mut u = 0;
            while u < SYMBOLS {
                let out = step(s as u8, u as u8);
                next[s][u] = out.next_state;
                label[s][u] = 4 * u as u8 + 2 * out.parity_y + out.parity_w;
                u += 1;
            }
            s += 1;
        }
        ConstTrellis::new(next, label)
    };
}

/// The binary LTE/UMTS RSC trellis as a constituent code of the SISO kernel
/// ([`crate::siso::Constituent`]): 8 states, 2 symbols, tail-terminated,
/// with its tables built from [`lte_rsc_step`] at compile time.  Branch
/// labels are `2u + parity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LteTrellis;

impl LteTrellis {
    pub(crate) const TABLE: ConstTrellis<2> = {
        let mut next = [[0u8; 2]; NUM_STATES];
        let mut label = [[0u8; 2]; NUM_STATES];
        let mut s = 0;
        while s < NUM_STATES {
            let mut u = 0;
            while u < 2 {
                let (to, parity) = lte_rsc_step(s as u8, u as u8);
                next[s][u] = to;
                label[s][u] = 2 * u as u8 + parity;
                u += 1;
            }
            s += 1;
        }
        ConstTrellis::new(next, label)
    };
}

/// 3x3 binary matrix used for the circulation-state computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gf2Matrix3([[u8; 3]; 3]);

impl Gf2Matrix3 {
    fn identity() -> Self {
        Gf2Matrix3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    }

    /// State-update matrix of the CRSC encoder: `s' = G s (+ input terms)`.
    fn state_update() -> Self {
        // s1' = s1 + s3 ; s2' = s1 ; s3' = s2
        Gf2Matrix3([[1, 0, 1], [1, 0, 0], [0, 1, 0]])
    }

    fn mul(&self, other: &Gf2Matrix3) -> Gf2Matrix3 {
        let mut out = [[0u8; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0;
                for k in 0..3 {
                    acc ^= self.0[i][k] & other.0[k][j];
                }
                *cell = acc;
            }
        }
        Gf2Matrix3(out)
    }

    fn pow(&self, mut e: usize) -> Gf2Matrix3 {
        let mut base = *self;
        let mut acc = Gf2Matrix3::identity();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
            e >>= 1;
        }
        acc
    }

    fn add(&self, other: &Gf2Matrix3) -> Gf2Matrix3 {
        let mut out = [[0u8; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.0[i][j] ^ other.0[i][j];
            }
        }
        Gf2Matrix3(out)
    }

    /// Inverse over GF(2), or `None` if singular.
    fn inverse(&self) -> Option<Gf2Matrix3> {
        let mut a = self.0;
        let mut inv = Gf2Matrix3::identity().0;
        for col in 0..3 {
            let pivot = (col..3).find(|&r| a[r][col] == 1)?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            for r in 0..3 {
                if r != col && a[r][col] == 1 {
                    for c in 0..3 {
                        a[r][c] ^= a[col][c];
                        inv[r][c] ^= inv[col][c];
                    }
                }
            }
        }
        Some(Gf2Matrix3(inv))
    }

    fn apply(&self, v: u8) -> u8 {
        // v = (s1, s2, s3) packed as bits 2,1,0
        let s = [(v >> 2) & 1, (v >> 1) & 1, v & 1];
        let mut out = 0u8;
        for (i, row) in self.0.iter().enumerate() {
            let mut acc = 0;
            for (k, &cell) in row.iter().enumerate() {
                acc ^= cell & s[k];
            }
            out |= acc << (2 - i);
        }
        out
    }
}

/// Computes the circulation state of a CRSC encoding.
///
/// Given the final state `s_n` reached after encoding the frame from state 0,
/// the circulation state `s_c` satisfies `s_c = G^N s_c + s_n`, i.e.
/// `s_c = (I + G^N)^{-1} s_n`.  The inverse exists whenever `N mod 7 != 0`
/// (the period of the feedback polynomial), which the WiMAX frame sizes
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CirculationState;

impl CirculationState {
    /// Computes the circulation state, or `None` if `n_couples` is a
    /// multiple of 7.
    pub fn compute(n_couples: usize, final_state_from_zero: u8) -> Option<u8> {
        let g = Gf2Matrix3::state_update();
        let gn = g.pow(n_couples);
        let m = gn.add(&Gf2Matrix3::identity());
        let inv = m.inverse()?;
        Some(inv.apply(final_state_from_zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn step_from_zero_with_zero_input_stays_zero() {
        let out = step(0, 0);
        assert_eq!(out.next_state, 0);
        assert_eq!(out.parity_y, 0);
        assert_eq!(out.parity_w, 0);
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn invalid_state_panics() {
        let _ = step(8, 0);
    }

    #[test]
    #[should_panic(expected = "symbol out of range")]
    fn invalid_symbol_panics() {
        let _ = step(0, 4);
    }

    #[test]
    fn trellis_has_uniform_connectivity() {
        let t = DuoBinaryTrellis::TABLE;
        for s in 0..NUM_STATES {
            // the four outgoing branches reach four distinct next states
            // (the code is recursive and non-catastrophic)
            let mut tos = t.next[s].to_vec();
            tos.sort_unstable();
            tos.dedup();
            assert_eq!(tos.len(), 4);
            // and carry the four distinct symbols, one label block each
            for (u, &label) in t.label[s].iter().enumerate() {
                assert_eq!(usize::from(label) / 4, u);
                let out = step(s as u8, u as u8);
                assert_eq!(label % 4, 2 * out.parity_y + out.parity_w);
            }
            // every incoming entry is a branch that really reaches `s`
            for &(from, label) in &t.prev[s] {
                let u = usize::from(label) / 4;
                assert_eq!(usize::from(t.next[usize::from(from)][u]), s);
            }
        }
    }

    #[test]
    fn recursion_has_period_seven() {
        // Driving the encoder with the all-zero input from a non-zero state
        // must return to that state after 7 steps (feedback 1 + D + D^3 is
        // primitive of degree 3).
        let mut state = 1u8;
        let start = state;
        let mut period = 0;
        for i in 1..=14 {
            state = step(state, 0).next_state;
            if state == start {
                period = i;
                break;
            }
        }
        assert_eq!(period, 7);
    }

    #[test]
    fn matrix_model_matches_transition_function() {
        // With zero input the state update must equal G * s.
        let g = Gf2Matrix3::state_update();
        for s in 0..8u8 {
            assert_eq!(step(s, 0).next_state, g.apply(s), "state {s}");
        }
    }

    #[test]
    fn circulation_state_closes_the_circle() {
        let sizes = [24usize, 36, 48, 96, 240];
        for n in sizes {
            // random-ish symbol sequence
            let symbols: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 4) as u8).collect();
            // pass 1: from state 0
            let mut state = 0u8;
            for &u in &symbols {
                state = step(state, u).next_state;
            }
            let sc = CirculationState::compute(n, state).expect("exists");
            // pass 2: from the circulation state we must return to it
            let mut s = sc;
            for &u in &symbols {
                s = step(s, u).next_state;
            }
            assert_eq!(s, sc, "n = {n}");
        }
    }

    #[test]
    fn circulation_state_undefined_for_multiples_of_seven() {
        assert_eq!(CirculationState::compute(14, 3), None);
        assert!(CirculationState::compute(24, 3).is_some());
    }

    proptest! {
        #[test]
        fn circulation_closes_for_random_frames(
            symbols in proptest::collection::vec(0u8..4, 8..60)
        ) {
            let n = symbols.len();
            prop_assume!(n % 7 != 0);
            let mut state = 0u8;
            for &u in &symbols {
                state = step(state, u).next_state;
            }
            let sc = CirculationState::compute(n, state).unwrap();
            let mut s = sc;
            for &u in &symbols {
                s = step(s, u).next_state;
            }
            prop_assert_eq!(s, sc);
        }

        #[test]
        fn distinct_symbols_give_distinct_next_states(state in 0u8..8) {
            let mut tos: Vec<u8> = (0..4).map(|u| step(state, u).next_state).collect();
            tos.sort_unstable();
            tos.dedup();
            prop_assert_eq!(tos.len(), 4);
        }
    }
}
