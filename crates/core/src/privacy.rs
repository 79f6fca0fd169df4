//! Privacy-preserving aggregation across providers (§3.1).
//!
//! The paper notes that sharing a "common barometer on the network
//! weather" *between competing providers* needs only minimal information,
//! and that "work on secure multiparty computation and anonymous
//! aggregation [SEPIA; Roughan & Zhang] could be leveraged to further
//! shield such information sharing."
//!
//! This module implements the classic building block those systems rest
//! on: **additive secret sharing over a prime field**. Each provider
//! splits its private measurement (say, its observed congestion level on
//! a path, in fixed-point) into one share per aggregator such that any
//! subset of aggregators smaller than the full set learns *nothing*;
//! summing every provider's shares at each aggregator and then combining
//! the aggregator totals yields exactly the sum of the private inputs —
//! the common barometer — and nothing else.

use phi_workload::SeedRng;

/// The field modulus: the largest 61-bit prime (2^61 − 1, a Mersenne
/// prime), leaving ample headroom to add many 48-bit fixed-point inputs
/// without wrap-around ambiguity.
pub const MODULUS: u64 = (1 << 61) - 1;

/// Fixed-point scale for fractional measurements (e.g. utilization).
pub const SCALE: f64 = 1_000_000.0;

fn add_mod(a: u64, b: u64) -> u64 {
    let s = a as u128 + b as u128;
    (s % MODULUS as u128) as u64
}

fn sub_mod(a: u64, b: u64) -> u64 {
    add_mod(a, MODULUS - (b % MODULUS))
}

/// One provider's share vector: element `i` goes to aggregator `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shares(pub Vec<u64>);

/// Encode a non-negative fractional measurement as a field element.
pub fn encode_fixed(value: f64) -> u64 {
    assert!(
        value.is_finite() && value >= 0.0,
        "measurement must be a non-negative finite number"
    );
    let fixed = (value * SCALE).round();
    assert!(
        fixed < (1u64 << 48) as f64,
        "measurement too large for the fixed-point range"
    );
    fixed as u64
}

/// Decode an aggregated field element back to a fractional value.
pub fn decode_fixed(element: u64) -> f64 {
    element as f64 / SCALE
}

/// Split `secret` into `n` additive shares (n ≥ 2).
///
/// Any `n − 1` shares are uniformly random and independent of the secret.
pub fn share(secret: u64, n: usize, rng: &mut SeedRng) -> Shares {
    assert!(n >= 2, "need at least two aggregators for privacy");
    assert!(secret < MODULUS, "secret out of field range");
    let mut shares = Vec::with_capacity(n);
    let mut sum = 0u64;
    for _ in 0..n - 1 {
        let r = rng.range_u64(0, MODULUS);
        shares.push(r);
        sum = add_mod(sum, r);
    }
    shares.push(sub_mod(secret, sum));
    Shares(shares)
}

/// One aggregator's running total of the shares it has received.
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    total: u64,
    contributions: u64,
}

impl Aggregator {
    /// A fresh aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Absorb one provider's share.
    pub fn absorb(&mut self, share: u64) {
        self.total = add_mod(self.total, share % MODULUS);
        self.contributions += 1;
    }

    /// The aggregator's (still blinded) partial total.
    pub fn partial(&self) -> u64 {
        self.total
    }

    /// Providers that contributed.
    pub fn contributions(&self) -> u64 {
        self.contributions
    }
}

/// Combine every aggregator's partial total into the plaintext sum.
pub fn combine(partials: &[u64]) -> u64 {
    partials.iter().fold(0u64, |acc, &p| add_mod(acc, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_reconstruct_the_secret() {
        let mut rng = SeedRng::new(1);
        for &secret in &[0u64, 1, 123_456_789, MODULUS - 1] {
            for n in 2..6 {
                let shares = share(secret, n, &mut rng);
                assert_eq!(shares.0.len(), n);
                let sum = shares.0.iter().fold(0u64, |a, &s| add_mod(a, s));
                assert_eq!(sum, secret, "n = {n}, secret = {secret}");
            }
        }
    }

    #[test]
    fn any_proper_subset_is_uninformative() {
        // Statistical check: fix two very different secrets; the marginal
        // distribution of any single share must look uniform for both —
        // compare first-share means over many sharings.
        let mut rng = SeedRng::new(2);
        let mean_first_share = |secret: u64, rng: &mut SeedRng| -> f64 {
            let n = 4000;
            (0..n)
                .map(|_| share(secret, 3, rng).0[0] as f64)
                .sum::<f64>()
                / n as f64
        };
        let a = mean_first_share(0, &mut rng);
        let b = mean_first_share(MODULUS - 1, &mut rng);
        let mid = MODULUS as f64 / 2.0;
        // Both means sit near the field midpoint regardless of secret.
        assert!((a - mid).abs() / mid < 0.05, "a = {a}");
        assert!((b - mid).abs() / mid < 0.05, "b = {b}");
    }

    #[test]
    fn a_round_of_shares_sums_exactly() {
        let mut rng = SeedRng::new(3);
        // Five providers' private congestion levels, each shared across
        // three aggregators.
        let levels = [0.82, 0.15, 0.47, 0.0, 0.99];
        let mut aggs = vec![Aggregator::new(); 3];
        for &m in &levels {
            let shares = share(encode_fixed(m), 3, &mut rng);
            for (agg, &s) in aggs.iter_mut().zip(&shares.0) {
                agg.absorb(s);
            }
        }
        let partials: Vec<u64> = aggs.iter().map(Aggregator::partial).collect();
        let sum = decode_fixed(combine(&partials));
        let expect: f64 = levels.iter().sum();
        assert!(
            (sum - expect).abs() < 3.0 / SCALE,
            "sum {sum} vs expected {expect}"
        );
        // The common barometer: mean congestion across providers.
        let mean = sum / levels.len() as f64;
        assert!((mean - expect / 5.0).abs() < 1e-5);
    }

    #[test]
    fn aggregators_see_only_blinded_partials() {
        let mut rng = SeedRng::new(4);
        let mut agg = Aggregator::new();
        let secret = encode_fixed(0.75);
        let shares = share(secret, 2, &mut rng);
        agg.absorb(shares.0[0]);
        assert_eq!(agg.contributions(), 1);
        // The partial is (with overwhelming probability) not the secret.
        assert_ne!(agg.partial(), secret);
    }

    #[test]
    fn fixed_point_roundtrip() {
        for &v in &[0.0, 0.000001, 0.5, 1.0, 123.456789] {
            let back = decode_fixed(encode_fixed(v));
            assert!((back - v).abs() < 1.0 / SCALE, "{v} -> {back}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_aggregator_rejected() {
        share(1, 1, &mut SeedRng::new(5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_measurements_rejected() {
        encode_fixed(-0.1);
    }
}
