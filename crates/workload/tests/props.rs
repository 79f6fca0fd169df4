//! Property-based invariants of the workload generators.

use proptest::prelude::*;

use phi_workload::{BoundedPareto, Exponential, OnOffConfig, OnOffSource, Sample, SeedRng, Zipf};

proptest! {
    #[test]
    fn exponential_samples_nonnegative(mean in 1e-6f64..1e12, seed in any::<u64>()) {
        let d = Exponential::with_mean(mean);
        let mut rng = SeedRng::new(seed);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn pareto_samples_within_bounds(
        alpha in 0.2f64..5.0,
        lo in 1.0f64..1e6,
        scale in 1.1f64..1e4,
        seed in any::<u64>(),
    ) {
        let hi = lo * scale;
        let d = BoundedPareto::new(alpha, lo, hi);
        let mut rng = SeedRng::new(seed);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo * 0.999 && x <= hi * 1.001, "x = {x} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn zipf_ranks_in_range(n in 1usize..5000, s in 0.1f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut rng = SeedRng::new(seed);
        for _ in 0..100 {
            prop_assert!(z.sample_rank(&mut rng) < n);
        }
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn onoff_plans_are_sane_and_deterministic(
        mean_on in 1.0f64..1e9,
        mean_off in 0.0f64..100.0,
        deterministic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = OnOffConfig { mean_on_bytes: mean_on, mean_off_secs: mean_off, deterministic };
        let a: Vec<_> = {
            let mut s = OnOffSource::new(cfg, SeedRng::new(seed));
            (0..30).map(|_| s.next_flow()).collect()
        };
        let b: Vec<_> = {
            let mut s = OnOffSource::new(cfg, SeedRng::new(seed));
            (0..30).map(|_| s.next_flow()).collect()
        };
        prop_assert_eq!(&a, &b);
        for p in &a {
            prop_assert!(p.bytes >= 1);
        }
    }

    #[test]
    fn forks_with_same_label_always_agree(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = SeedRng::new(seed);
        let mut a = root.fork(&label);
        let mut b = root.fork(&label);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
