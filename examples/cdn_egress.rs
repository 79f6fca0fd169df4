//! §2.1, end to end: how much path sharing does sampled telemetry reveal?
//!
//! Generates heavy-tailed CDN-style egress (Zipf destination popularity,
//! Pareto flow sizes), runs every packet through a 1-in-4096 IPFIX
//! sampler, ships the sampled records through the binary codec to the
//! collector, and computes the sharing-opportunity CDF over
//! (destination /24, minute) buckets.
//!
//! Run with: `cargo run --release --example cdn_egress`

use phi::telemetry::{generate_flows, Collector, EgressConfig, LossyExporter, Sampler, SharingCdf};
use phi::workload::SeedRng;

/// Records the exporter stages before it ships them as one codec batch.
const BATCH: usize = 1000;

fn main() {
    let cfg = EgressConfig::default();
    let mut rng = SeedRng::new(7);
    let flows = generate_flows(&cfg, &mut rng);
    println!(
        "synthetic egress: {} flows to {} /24s over {} minutes",
        flows.len(),
        cfg.subnets,
        cfg.minutes
    );

    // The "router" samples 1-in-4096 packets and ships batches of
    // `BATCH` records like an IPFIX exporter. The path loses nothing and
    // is flushed whenever the staging buffer fills, so every sampled
    // record reaches the collector.
    let mut collector = Collector::new();
    let mut exporter = LossyExporter::new(BATCH, 0.0, rng.fork("exporter"));
    let mut staged = 0;
    let mut sampler = Sampler::paper(rng.fork("sampler"));
    for flow in &flows {
        for ts in flow.packet_times() {
            if let Some(rec) = sampler.observe(flow.key, ts, 1500) {
                exporter.submit(rec);
                staged += 1;
                if staged == BATCH {
                    exporter.flush_into(&mut collector);
                    staged = 0;
                }
            }
        }
    }
    exporter.flush_into(&mut collector);

    let (observed, sampled) = sampler.counters();
    println!(
        "sampler: {observed} packets observed, {sampled} exported (1 in {})",
        observed / sampled.max(1)
    );
    println!(
        "collector: {} records into {} (/24, minute) buckets through the IPFIX codec",
        collector.record_count(),
        collector.bucket_count(),
    );

    let cdf = SharingCdf::from_collector(&collector);
    let (p5, p100) = cdf.paper_rows();
    println!("\nsharing-opportunity CDF over sampled flows:");
    for (k, frac) in cdf.ccdf_series(&[1, 2, 5, 10, 20, 50, 100, 200]) {
        let bar = "#".repeat((frac * 40.0).round() as usize);
        println!("  >= {k:>3} co-flows: {:>5.1}%  {bar}", frac * 100.0);
    }
    println!("\npaper's headline (their production trace): 50% share with >= 5, 12% with >= 100");
    println!(
        "this synthetic trace:                      {:.0}% share with >= 5, {:.0}% with >= 100",
        p5 * 100.0,
        p100 * 100.0
    );
    println!(
        "median sampled flow shares its path-minute with {} other flows",
        cdf.quantile(0.5).unwrap_or(0)
    );
}
