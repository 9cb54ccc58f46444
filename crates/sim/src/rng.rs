//! Reproducible randomness.
//!
//! Every run derives all of its random choices from one master `u64` seed.
//! Components get their own *forked* streams (`fork("tor-3")`,
//! `fork("flow-17")`, ...) so that adding a random draw in one component
//! does not perturb the sequence seen by another — a property that keeps
//! A/B comparisons between algorithms meaningful.
//!
//! The generator is an in-tree ChaCha8: the keystream is produced by this
//! repository's own block function, so figure regeneration can never drift
//! with a dependency bump — there is no dependency. The first words of the
//! keystream are pinned by golden-value tests below; any change to the
//! stream is a test failure, not a silent figure shift.

/// `"expand 32-byte k"`, the ChaCha sigma constants.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One SplitMix64 step; used to expand a `u64` seed into a 256-bit key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The ChaCha block function with 8 rounds, a 64-bit block counter, and a
/// zero 64-bit nonce (one key is only ever used for one stream).
fn chacha8_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    s[4..12].copy_from_slice(key);
    s[12] = counter as u32;
    s[13] = (counter >> 32) as u32;
    // s[14], s[15]: zero nonce.
    let input = s;
    for _ in 0..4 {
        // Column round + diagonal round = one double round; 4 double
        // rounds = ChaCha8.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (w, i) in s.iter_mut().zip(input) {
        *w = w.wrapping_add(i);
    }
    s
}

/// A deterministic random stream.
///
/// Laid out in draw order: a draw reads `next_word` and one or two words
/// of `buf`, which share the first 72 bytes; only a refill, once per 16
/// words, reads `counter` and `key`.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct SimRng {
    /// Next unread word in `buf`; 16 means the buffer is exhausted.
    next_word: usize,
    buf: [u32; 16],
    counter: u64,
    key: [u32; 8],
}

impl SimRng {
    /// A stream derived from a master seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        SimRng {
            key,
            counter: 0,
            buf: [0; 16],
            next_word: 16,
        }
    }

    /// The 32-byte expanded key, little-endian per word (stable input for
    /// [`SimRng::fork`]'s label hash).
    fn key_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.key) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Derive an independent child stream, keyed by a label.
    ///
    /// The child seed mixes the label's bytes into this stream's key via
    /// FNV-1a, so distinct labels produce uncorrelated streams and the same
    /// label always produces the same stream.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.key_bytes().iter() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        for &b in label.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        SimRng::from_seed(h)
    }

    /// Derive an independent child stream keyed by an index (convenience for
    /// per-flow / per-node streams).
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        self.fork(&format!("{label}#{idx}"))
    }

    /// Next 32 keystream bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.next_word == 16 {
            self.buf = chacha8_block(&self.key, self.counter);
            self.counter = self.counter.wrapping_add(1);
            self.next_word = 0;
        }
        let w = self.buf[self.next_word];
        self.next_word += 1;
        w
    }

    /// Next 64 keystream bits (low word first).
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform draw in `[0, n)`, unbiased (Lemire's multiply-shift with
    /// rejection).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let mut m = (self.next_u64() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.f64() < p
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed draw with the given mean (inter-arrival
    /// times of Poisson traffic).
    ///
    /// # Panics
    /// Panics if `mean` is not positive.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exp() needs a positive mean");
        // f64() is in [0, 1), so 1 - f64() is in (0, 1] and ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Uniformly pick one element.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choice() over empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A random derangement-ish permutation target for "permutation traffic":
    /// returns a permutation `p` of `0..n` with `p[i] != i` for all `i`
    /// (each node sends to a distinct node other than itself).
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn derangement(&mut self, n: usize) -> Vec<usize> {
        assert!(n >= 2, "derangement needs at least two elements");
        loop {
            let mut p: Vec<usize> = (0..n).collect();
            self.shuffle(&mut p);
            if p.iter().enumerate().all(|(i, &v)| i != v) {
                return p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First 8 outputs of `SimRng::from_seed(0)`, pinned forever. If this
    /// test fails, figure regeneration has drifted — fix the generator,
    /// never the constants. (See `crates/sim/tests/golden_rng.rs` for the
    /// full 32-value vectors, including a forked stream.)
    #[test]
    fn golden_keystream_seed0() {
        const GOLDEN_SEED0_FIRST8: [u64; 8] = [
            0xbf94d1332d8ee5e8,
            0x3a738775a6da5a01,
            0x3d46ff10c143ee06,
            0x17c6ab23e9f6424f,
            0x5ce2479b2fb6898b,
            0x0ae8099f86bff662,
            0x5f2f09fdc72f90bd,
            0x95d53efa28e5a01f,
        ];
        let mut r = SimRng::from_seed(0);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(got, GOLDEN_SEED0_FIRST8, "keystream drifted");
    }

    /// The block function agrees with the published ChaCha8 test vector
    /// (all-zero key, zero counter, zero nonce) — this is real ChaCha8,
    /// not a lookalike.
    #[test]
    fn chacha8_published_test_vector() {
        let block = chacha8_block(&[0u32; 8], 0);
        let mut bytes = Vec::with_capacity(64);
        for w in block {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        const EXPECT: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(&bytes[..32], &EXPECT);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let root = SimRng::from_seed(7);
        let mut f1 = root.fork("fabric");
        let mut f1b = root.fork("fabric");
        let mut f2 = root.fork("rnic");
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn fork_idx_distinguishes_indices() {
        let root = SimRng::from_seed(7);
        let mut a = root.fork_idx("flow", 0);
        let mut b = root.fork_idx("flow", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = SimRng::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = SimRng::from_seed(5);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v), "v={v}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::from_seed(9);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = SimRng::from_seed(19);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((4.8..5.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn choice_picks_every_element_eventually() {
        let mut r = SimRng::from_seed(23);
        let items = [10u32, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = r.choice(&items);
            seen[(v / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn derangement_has_no_fixed_points() {
        let mut r = SimRng::from_seed(11);
        for n in [2usize, 3, 8, 30, 120] {
            let p = r.derangement(n);
            assert_eq!(p.len(), n);
            let mut seen = vec![false; n];
            for (i, &v) in p.iter().enumerate() {
                assert_ne!(i, v);
                seen[v] = true;
            }
            assert!(seen.into_iter().all(|s| s), "not a permutation");
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = SimRng::from_seed(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
