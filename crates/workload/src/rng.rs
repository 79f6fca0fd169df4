//! Deterministic, forkable random number streams.
//!
//! Every stochastic element of an experiment draws from a [`SeedRng`]
//! derived from a single experiment seed plus a textual label (e.g.
//! `"sender/3/on-bytes"`). Forking by label means adding or removing one
//! source of randomness never perturbs the streams of the others — runs
//! stay comparable across code changes, which is what makes the paper's
//! leave-one-out analysis (Figure 3) meaningful here.
//!
//! The generator is ChaCha with 8 rounds, written out below: its output is
//! fixed by the cipher (RFC 8439's state layout, with a 64-bit block
//! counter), so a stream depends on its seed alone, on every platform and
//! toolchain. The seed becomes the key through SplitMix64.

/// Words in a ChaCha block.
const WORDS: usize = 16;

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct SeedRng {
    /// Input block: constants, key, 64-bit block counter, nonce.
    state: [u32; WORDS],
    /// The current keystream block.
    block: [u32; WORDS],
    /// Next unread word of `block`.
    next: usize,
    seed: u64,
}

impl SeedRng {
    /// The root stream for an experiment.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u32; 8];
        let mut s = seed;
        for pair in key.chunks_exact_mut(2) {
            let k = splitmix64(&mut s);
            pair[0] = k as u32;
            pair[1] = (k >> 32) as u32;
        }
        SeedRng::keyed(key, seed)
    }

    /// A stream over the ChaCha key `key`, block counter and nonce zero.
    fn keyed(key: [u32; 8], seed: u64) -> Self {
        let mut state = [0u32; WORDS];
        // "expand 32-byte k"
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
        state[4..12].copy_from_slice(&key);
        SeedRng {
            state,
            block: [0; WORDS],
            next: WORDS, // the first draw computes block 0
            seed,
        }
    }

    /// The seed this stream (or its root ancestor) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream for `label`.
    ///
    /// Stable under insertion/removal of other forks: the child seed
    /// depends only on the parent seed and the label (FNV-1a hash), not on
    /// how much the parent stream has been consumed.
    pub fn fork(&self, label: &str) -> SeedRng {
        SeedRng::new(fnv1a(self.seed, label.as_bytes()))
    }

    /// Derive an independent stream for an indexed entity, e.g. sender `i`.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SeedRng {
        SeedRng::new(fnv1a(self.seed, label.as_bytes()) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 32 bits of the keystream.
    fn next_u32(&mut self) -> u32 {
        if self.next == WORDS {
            self.refill();
        }
        let w = self.block[self.next];
        self.next += 1;
        w
    }

    /// The next 64 bits of the keystream: two words, the first low.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        hi << 32 | lo
    }

    /// Compute the block at the current counter, then step the counter.
    fn refill(&mut self) {
        let mut w = self.state;
        for _ in 0..4 {
            // A column round, then a diagonal round.
            quarter_round(&mut w, 0, 4, 8, 12);
            quarter_round(&mut w, 1, 5, 9, 13);
            quarter_round(&mut w, 2, 6, 10, 14);
            quarter_round(&mut w, 3, 7, 11, 15);
            quarter_round(&mut w, 0, 5, 10, 15);
            quarter_round(&mut w, 1, 6, 11, 12);
            quarter_round(&mut w, 2, 7, 8, 13);
            quarter_round(&mut w, 3, 4, 9, 14);
        }
        for (out, inp) in w.iter_mut().zip(self.state.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.block = w;
        self.next = 0;
        let counter = (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
    }

    /// A uniform draw in `[0, 1)`: the top 53 bits of one `u64`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + self.unit() * (hi - lo)
    }

    /// A uniform integer draw in `[lo, hi)`, unbiased: a draw from the
    /// incomplete last multiple of `hi - lo` is rejected and drawn again.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range");
        let span = hi - lo;
        let rem = (u64::MAX % span).wrapping_add(1) % span;
        loop {
            let v = self.next_u64();
            if rem == 0 || v <= u64::MAX - rem {
                return lo + v % span;
            }
        }
    }

    /// A uniform usize draw in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// A Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[inline(always)]
fn quarter_round(s: &mut [u32; WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded FNV-1a over `bytes` — the repository's standard cheap keyed
/// hash. Used for seed derivation here and for order-free fingerprints
/// (per-flow sampler phases, run digests) elsewhere.
#[inline]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_keystream_is_chacha8() {
        // The published ChaCha8 block for the all-zero key and nonce.
        let mut r = SeedRng::keyed([0; 8], 0);
        let block: Vec<u8> = (0..WORDS)
            .flat_map(|_| r.next_u32().to_le_bytes())
            .collect();
        let want = "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
                    984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42";
        let got: String = block.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want);
    }

    /// FNV-1a over 1 000 draws of every kind from a root stream and two of
    /// its forks.
    fn draws_digest(seed: u64) -> u64 {
        let root = SeedRng::new(seed);
        let mut h = 0;
        for mut r in [root.clone(), root.fork("x"), root.fork_indexed("s", 3)] {
            for i in 0..1000u64 {
                let v = match i % 6 {
                    0 => r.next_u64(),
                    1 => r.unit().to_bits(),
                    2 => r.range_u64(10, 17 + i),
                    // A span that rejects about one draw in three.
                    3 => r.range_u64(5, u64::MAX / 3 * 2),
                    4 => r.index(1 + i as usize) as u64,
                    _ => r.chance(0.3) as u64,
                };
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn streams_are_pinned() {
        // Every experiment's draws follow from these; a change here moves
        // every digest in the repository.
        for (seed, firsts, digest) in [
            (
                0,
                [0xbf94d1332d8ee5e8, 0x3a738775a6da5a01, 0x3d46ff10c143ee06],
                0x57f0cea604a6374f,
            ),
            (
                7,
                [0x6686d7a050825212, 0xc63a5f929db41d41, 0x81e77dd0e54acaef],
                0x771e13a94a08eb9b,
            ),
            (
                42,
                [0x31159ef987c91afc, 0x17559844b4169001, 0xf7d0afbf9ad9a69f],
                0xa590c02413f462b9,
            ),
            (
                u64::MAX,
                [0x167fca9c60ef8644, 0xf792fa24f2f83696, 0x71e8f282dbcbe0b1],
                0xfbced2377efb7e08,
            ),
        ] {
            let mut r = SeedRng::new(seed);
            assert_eq!(firsts.map(|_| r.next_u64()), firsts, "seed {seed}");
            assert_eq!(draws_digest(seed), digest, "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedRng::new(42);
        let mut b = SeedRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn a_clone_continues_where_its_original_stood() {
        let mut a = SeedRng::new(3);
        for _ in 0..5 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let root = SeedRng::new(7);
        let fork_before = root.fork("x");
        let mut consumed = root.clone();
        for _ in 0..10 {
            consumed.next_u64();
        }
        let fork_after = consumed.fork("x");
        assert_eq!(fork_before.seed(), fork_after.seed());
    }

    #[test]
    fn fork_labels_distinguish() {
        let root = SeedRng::new(7);
        assert_ne!(root.fork("a").seed(), root.fork("b").seed());
        assert_ne!(
            root.fork_indexed("s", 0).seed(),
            root.fork_indexed("s", 1).seed()
        );
    }

    #[test]
    fn unit_in_range_and_uniformish() {
        let mut r = SeedRng::new(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let mut r = SeedRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn integer_draws_stay_in_range() {
        let mut r = SeedRng::new(9);
        for _ in 0..1000 {
            assert!((10..17).contains(&r.range_u64(10, 17)));
            assert!((5..u64::MAX / 3 * 2).contains(&r.range_u64(5, u64::MAX / 3 * 2)));
            assert!(r.index(5) < 5);
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SeedRng::new(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
    }
}
