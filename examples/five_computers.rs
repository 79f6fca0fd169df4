//! §3.1 across the "five computers": a common network-weather barometer
//! between *competing* providers, without revealing anyone's numbers.
//!
//! Five providers (think Netflix, YouTube, a CDN, a cloud, a conferencing
//! service) each privately measure the congestion level on a shared
//! transit path — here, by each running their own simulation of their own
//! traffic and reading their own context store. They then contribute
//! secret shares to three independent aggregators; only the *mean*
//! congestion level emerges. No aggregator subset short of all of them
//! learns anything about an individual provider's measurement.
//!
//! Run with: `cargo run --release --example five_computers`

use phi::core::privacy::{combine, decode_fixed, encode_fixed, share, Aggregator};
use phi::core::{provision_cubic, run_experiment, ExperimentSpec, DUMBBELL_PATH};
use phi::core::{provision_cubic_phi, PolicyTable};
use phi::sim::time::Dur;
use phi::tcp::CubicParams;
use phi::workload::{OnOffConfig, SeedRng};

fn main() {
    let providers = [
        ("video-streamer", 10usize, 2_000_000.0),
        ("tube-site", 8, 1_000_000.0),
        ("cdn", 6, 400_000.0),
        ("cloud", 4, 800_000.0),
        ("conferencing", 4, 120_000.0),
    ];

    // 1. Each provider privately measures its own corner of the network.
    println!("each provider measures its own path utilization (private):\n");
    let mut private_levels = Vec::new();
    for (i, (name, senders, mean_bytes)) in providers.iter().enumerate() {
        let spec = ExperimentSpec::new(
            *senders,
            OnOffConfig {
                mean_on_bytes: *mean_bytes,
                mean_off_secs: 1.0,
                deterministic: false,
            },
            Dur::from_secs(20),
            7_000 + i as u64,
        );
        // Phi senders so the provider's own context store is populated.
        let mut result = if i % 2 == 0 {
            run_experiment(&spec, provision_cubic_phi(PolicyTable::reference()))
        } else {
            run_experiment(&spec, provision_cubic(CubicParams::default()))
        };
        // The provider's private measurement: its store's view when
        // possible, else the link-level truth it alone can see.
        let u = {
            let from_store = result
                .store
                .peek(DUMBBELL_PATH, spec.duration.as_nanos())
                .utilization;
            if from_store > 0.0 {
                from_store
            } else {
                result.metrics.utilization
            }
        };
        println!("  {name:<16} u = {u:.3}   (stays private)");
        private_levels.push(u);
    }

    // 2. Secret-share to three independent aggregators.
    let n_aggs = 3;
    let mut aggs = vec![Aggregator::new(); n_aggs];
    let mut rng = SeedRng::new(5);
    for &u in &private_levels {
        let shares = share(encode_fixed(u), n_aggs, &mut rng);
        for (agg, &s) in aggs.iter_mut().zip(&shares.0) {
            agg.absorb(s);
        }
    }
    println!("\naggregators see only blinded partial sums:");
    for (i, a) in aggs.iter().enumerate() {
        println!(
            "  aggregator {i}: partial {:>20} ({} contributions)",
            a.partial(),
            a.contributions()
        );
    }

    // 3. Combining all partials reveals the barometer — and only that.
    let sum = decode_fixed(combine(
        &aggs.iter().map(Aggregator::partial).collect::<Vec<_>>(),
    ));
    let mean = sum / private_levels.len() as f64;
    let true_mean = private_levels.iter().sum::<f64>() / private_levels.len() as f64;
    println!("\ncommon barometer: mean congestion {mean:.3} (ground truth {true_mean:.3})");
    println!(
        "\nEach of the \"five computers\" now knows the network weather without\n\
         any of them disclosing its own traffic — the §3.1 sharing-across-\n\
         competitors story, executable."
    );
    assert!((mean - true_mean).abs() < 1e-4);
}
