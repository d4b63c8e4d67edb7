//! Random 64-shot error masks for the bit-parallel frame sampler.
//!
//! A Pauli-frame Monte Carlo pass propagates 64 shots at once as the lanes
//! of a [`crate::TermBatch`]; injecting a stochastic channel into all of
//! them is XORing random words into the batch's x/z planes. The masks come
//! from [`BernoulliWords`], a buffered geometric sampler: for a channel of
//! probability `p` it draws the *gaps* between error shots
//! (`⌊ln U / ln(1-p)⌋`), so a word of 64 shots costs `O(1 + 64p)` RNG draws
//! instead of 64 — the regime that matters, since physical error rates are
//! `10⁻⁴`–`10⁻²`. The gap state is carried across word boundaries, so a
//! multi-word shot sequence is one exact Bernoulli process.
//! [`uniform_pauli_planes`] and [`uniform_pauli_pair_planes`] then draw the
//! depolarizing kick for every shot whose mask bit is set.

use crate::TermBatch;
use rand::Rng;

/// A buffered geometric sampler producing 64-shot Bernoulli masks: each bit
/// of [`BernoulliWords::next_mask`] is set independently with probability
/// `p`, and the geometric gap state is carried across words so consecutive
/// masks form one exact Bernoulli process over the whole shot sequence.
///
/// `ln(1-p)` is precomputed once per channel; drawing a mask costs one RNG
/// draw per *set* bit (plus at most one for the carried gap), which for
/// physical error rates is orders of magnitude fewer draws than one per
/// shot.
#[derive(Debug, Clone)]
pub struct BernoulliWords {
    /// `1 / ln(1-p)` (negative); `p ∈ {0, 1}` short-circuit via the flags.
    inv_ln_q: f64,
    always: bool,
    never: bool,
    /// Shots to skip before the next error (`u64::MAX` ≈ never).
    gap: u64,
    primed: bool,
}

impl BernoulliWords {
    /// A sampler for per-shot probability `p` (clamped to `[0, 1]`).
    pub fn new(p: f64) -> BernoulliWords {
        BernoulliWords {
            // ln_1p keeps ln(1-p) finite and negative even when p is so
            // small that `1.0 - p` rounds to 1.0 — a plain ln would return
            // 0 there, flip the gap sign to -∞, and inject an error on
            // *every* shot instead of (almost) never.
            inv_ln_q: if p > 0.0 && p < 1.0 {
                (-p).ln_1p().recip()
            } else {
                0.0
            },
            always: p >= 1.0,
            // NaN probabilities count as "never" rather than poisoning gaps.
            never: p <= 0.0 || p.is_nan(),
            gap: 0,
            primed: false,
        }
    }

    /// Draws the geometric gap to the next error: `⌊ln U / ln(1-p)⌋`.
    fn draw_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        // 1-u ∈ (0, 1], so the ratio of two non-positive logs is ≥ 0.
        let g = (-u).ln_1p() * self.inv_ln_q;
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// The Bernoulli mask of the next 64 shots.
    pub fn next_mask<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        if self.never {
            return 0;
        }
        if self.always {
            return !0;
        }
        if !self.primed {
            self.gap = self.draw_gap(rng);
            self.primed = true;
        }
        let mut mask = 0u64;
        while self.gap < TermBatch::LANES as u64 {
            mask |= 1 << self.gap;
            // Two saturating steps: `1 + draw_gap()` itself overflows when
            // the draw saturated at u64::MAX.
            self.gap = self
                .gap
                .saturating_add(1)
                .saturating_add(self.draw_gap(rng));
        }
        self.gap -= TermBatch::LANES as u64;
        mask
    }
}

/// Uniform non-identity Pauli planes for every set bit of `mask`: returns
/// `(x, z)` words where each masked bit pair is uniform over
/// `{X=(1,0), Y=(1,1), Z=(0,1)}` (the single-qubit depolarizing kick).
/// Bits outside `mask` are zero.
///
/// Uses word-level rejection: a draw gives each bit pair uniform over four
/// combinations, and only the (exponentially shrinking) set of bits that
/// drew identity is redrawn.
pub fn uniform_pauli_planes<R: Rng + ?Sized>(mask: u64, rng: &mut R) -> (u64, u64) {
    let (mut x, mut z) = (rng.gen::<u64>(), rng.gen::<u64>());
    let mut identity = mask & !(x | z);
    while identity != 0 {
        x |= rng.gen::<u64>() & identity;
        z |= rng.gen::<u64>() & identity;
        identity = mask & !(x | z);
    }
    (x & mask, z & mask)
}

/// Uniform non-identity *two-qubit* Pauli planes for every set bit of
/// `mask`: returns `(xa, za, xb, zb)` words where each masked 4-bit column
/// is uniform over the 15 non-identity two-qubit Paulis (the two-qubit
/// depolarizing kick). Bits outside `mask` are zero.
pub fn uniform_pauli_pair_planes<R: Rng + ?Sized>(mask: u64, rng: &mut R) -> (u64, u64, u64, u64) {
    let (mut xa, mut za) = (rng.gen::<u64>(), rng.gen::<u64>());
    let (mut xb, mut zb) = (rng.gen::<u64>(), rng.gen::<u64>());
    let mut identity = mask & !(xa | za | xb | zb);
    while identity != 0 {
        xa |= rng.gen::<u64>() & identity;
        za |= rng.gen::<u64>() & identity;
        xb |= rng.gen::<u64>() & identity;
        zb |= rng.gen::<u64>() & identity;
        identity = mask & !(xa | za | xb | zb);
    }
    (xa & mask, za & mask, xb & mask, zb & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_words_edge_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(BernoulliWords::new(0.0).next_mask(&mut rng), 0);
        assert_eq!(BernoulliWords::new(-1.0).next_mask(&mut rng), 0);
        assert_eq!(BernoulliWords::new(1.0).next_mask(&mut rng), !0);
        assert_eq!(BernoulliWords::new(2.0).next_mask(&mut rng), !0);
    }

    #[test]
    fn bernoulli_words_match_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        for &p in &[1e-3, 0.05, 0.3, 0.9] {
            let mut sampler = BernoulliWords::new(p);
            let words = 4000usize;
            let ones: u32 = (0..words)
                .map(|_| sampler.next_mask(&mut rng).count_ones())
                .sum();
            let rate = ones as f64 / (words * 64) as f64;
            let sigma = (p * (1.0 - p) / (words * 64) as f64).sqrt();
            assert!((rate - p).abs() < 6.0 * sigma + 1e-6, "p {p}: rate {rate}");
        }
    }

    #[test]
    fn bernoulli_words_survive_extreme_probabilities() {
        // Regression: p below f64's 1-p resolution must behave as "almost
        // never" (a plain ln(1.0-p) = 0 inverted the gap to -∞, which set
        // EVERY bit), and gap draws that saturate at u64::MAX must not
        // overflow the `1 + gap` advance.
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[1e-300, f64::MIN_POSITIVE, 1e-25, 1e-18] {
            let mut sampler = BernoulliWords::new(p);
            for _ in 0..256 {
                assert_eq!(sampler.next_mask(&mut rng), 0, "p = {p:e}");
            }
        }
    }

    #[test]
    fn bernoulli_words_is_deterministic() {
        let draw = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut s = BernoulliWords::new(0.02);
            (0..32).map(|_| s.next_mask(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn uniform_pauli_planes_cover_xyz_only() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 4]; // I, X, Y, Z
        for _ in 0..500 {
            let (x, z) = uniform_pauli_planes(!0, &mut rng);
            for b in 0..64 {
                let idx = (((x >> b) & 1) + 2 * ((z >> b) & 1)) as usize;
                counts[idx] += 1;
            }
        }
        assert_eq!(counts[0], 0, "identity must never be injected");
        let total: usize = counts.iter().sum();
        for &c in &counts[1..] {
            let rate = c as f64 / total as f64;
            assert!((rate - 1.0 / 3.0).abs() < 0.01, "counts {counts:?}");
        }
    }

    #[test]
    fn uniform_pauli_planes_respect_mask() {
        let mut rng = StdRng::seed_from_u64(6);
        let mask = 0xF0F0_0000_1234_0001;
        let (x, z) = uniform_pauli_planes(mask, &mut rng);
        assert_eq!(x & !mask, 0);
        assert_eq!(z & !mask, 0);
        assert_eq!(mask & !(x | z), 0, "every masked bit got a non-identity");
        let (xa, za, xb, zb) = uniform_pauli_pair_planes(mask, &mut rng);
        for w in [xa, za, xb, zb] {
            assert_eq!(w & !mask, 0);
        }
        assert_eq!(mask & !(xa | za | xb | zb), 0);
    }

    #[test]
    fn uniform_pauli_pair_planes_are_uniform_over_fifteen() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0usize; 16];
        for _ in 0..800 {
            let (xa, za, xb, zb) = uniform_pauli_pair_planes(!0, &mut rng);
            for b in 0..64 {
                let idx = (((xa >> b) & 1)
                    + 2 * ((za >> b) & 1)
                    + 4 * ((xb >> b) & 1)
                    + 8 * ((zb >> b) & 1)) as usize;
                counts[idx] += 1;
            }
        }
        assert_eq!(counts[0], 0);
        let total: usize = counts.iter().sum();
        for &c in &counts[1..] {
            let rate = c as f64 / total as f64;
            assert!((rate - 1.0 / 15.0).abs() < 0.01, "counts {counts:?}");
        }
    }
}
