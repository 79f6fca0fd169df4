//! T3 — Table 3: Remy vs Remy-Phi vs Cubic on the paper's dumbbell.
//!
//! Topology and workload straight from the table caption: single
//! bottleneck, 15 Mbit/s, 150 ms RTT, 8 senders alternating exponential
//! 100 KB transfers with exponential 0.5 s off times.
//!
//! Arms:
//! * **Cubic** — unmodified defaults (Table 1);
//! * **Remy** — rule table trained *without* shared information;
//! * **Remy-Phi-practical** — util-extended table; utilization fetched at
//!   connection start and frozen (the §2.2.2 lookup/report discipline);
//! * **Remy-Phi-ideal** — same table; every ACK carries up-to-the-minute
//!   bottleneck utilization from the oracle.
//!
//! The paper's shape to reproduce: on the `log(P)` objective,
//! ideal ≥ practical > plain Remy > Cubic, with Cubic's queueing delay
//! far above the Remy variants'.

use phi_bench::{banner, scale, write_json};
use phi_core::harness::{provision_cubic, run_repeated, ExperimentSpec};
use phi_core::power::log_power;
use phi_remy::{provision_remy, Trainer, TrainerConfig, UtilFeed, WhiskerTree};
use phi_sim::time::Dur;
use phi_tcp::CubicParams;
use phi_workload::OnOffConfig;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    median_throughput_mbps: f64,
    median_queueing_delay_ms: f64,
    median_objective: f64,
    flows: usize,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-sender medians across runs, in the table's units.
fn evaluate(
    spec: &ExperimentSpec,
    runs: usize,
    name: &str,
    provision: impl Fn(phi_core::ProvisionCtx<'_>) -> phi_core::Provisioned + Sync,
) -> Row {
    let results = run_repeated(spec, runs, provision);
    let base = spec.base_rtt_ms();
    let mut tputs = Vec::new();
    let mut delays = Vec::new();
    let mut objectives = Vec::new();
    let mut flows = 0usize;
    for r in &results {
        for reports in &r.per_sender {
            if reports.is_empty() {
                continue;
            }
            let mut t = 0.0;
            let mut d = 0.0;
            let mut n = 0.0;
            for rep in reports {
                t += rep.throughput_bps() / 1e6;
                d += if rep.rtt_samples > 0 {
                    rep.mean_rtt_ms
                } else {
                    base
                };
                n += 1.0;
                flows += 1;
            }
            let tput = t / n;
            let rtt = d / n;
            tputs.push(tput);
            delays.push((rtt - base).max(0.0));
            objectives.push(log_power(tput, rtt));
        }
    }
    Row {
        algorithm: name.to_string(),
        median_throughput_mbps: median(tputs),
        median_queueing_delay_ms: median(delays),
        median_objective: median(objectives),
        flows,
    }
}

fn main() {
    let sc = scale();
    // The Table 3 configuration.
    let spec = ExperimentSpec::new(8, OnOffConfig::table3(), Dur::from_secs(sc.sim_secs), 5005);

    banner("Table 3 setup: training Remy rule tables");
    let train_spec = {
        let mut s = spec.clone();
        s.duration = Dur::from_secs(if sc.full_grid { 30 } else { 15 });
        s
    };
    let trainer_cfg = |feed| {
        if sc.full_grid {
            TrainerConfig::table3(vec![train_spec.clone()], feed)
        } else {
            TrainerConfig::quick(train_spec.clone(), feed)
        }
    };

    // Plain Remy: no shared-utilization feed during training.
    let mut t0 = Trainer::new(trainer_cfg(UtilFeed::None));
    let (tree_plain, obj_plain) = t0.train(WhiskerTree::initial());
    println!(
        "plain Remy tree: {} whiskers, training objective {:.3} ({} improvement steps)",
        tree_plain.len(),
        obj_plain,
        t0.history.len()
    );

    // Remy-Phi: "we extend the context ... with an additional dimension
    // corresponding to the bottleneck link utilization and then retrain"
    // — warm-start from the learned plain policy, split every rule on the
    // new utilization dimension, and continue training with the
    // up-to-the-minute feed (as in the paper's training setup).
    let mut seeded = tree_plain.clone();
    for idx in 0..tree_plain.len() {
        seeded.split_along(idx, 3);
    }
    let mut t1 = Trainer::new(trainer_cfg(UtilFeed::Ideal));
    let (tree_util, obj_util) = t1.train(seeded);
    println!(
        "Remy-Phi tree:   {} whiskers, training objective {:.3} ({} improvement steps)",
        tree_util.len(),
        obj_util,
        t1.history.len()
    );
    println!("\nlearned Remy-Phi rules:\n{}", tree_util.describe());
    let (tree_plain, tree_util) = (Arc::new(tree_plain), Arc::new(tree_util));

    banner("Table 3: single-bottleneck dumbbell, 15 Mbit/s, 150 ms RTT, 8 senders");

    let rows = vec![
        evaluate(
            &spec,
            sc.runs,
            "Remy-Phi-practical",
            provision_remy(tree_util.clone(), UtilFeed::Practical, None),
        ),
        evaluate(
            &spec,
            sc.runs,
            "Remy-Phi-ideal",
            provision_remy(tree_util.clone(), UtilFeed::Ideal, None),
        ),
        evaluate(
            &spec,
            sc.runs,
            "Remy",
            provision_remy(tree_plain.clone(), UtilFeed::None, None),
        ),
        evaluate(
            &spec,
            sc.runs,
            "Cubic",
            provision_cubic(CubicParams::default()),
        ),
    ];

    println!(
        "{:<22} {:>18} {:>22} {:>18}",
        "Algorithm", "Median tput (Mbps)", "Median queue delay(ms)", "Median objective"
    );
    for r in &rows {
        println!(
            "{:<22} {:>18.2} {:>22.1} {:>18.3}",
            r.algorithm, r.median_throughput_mbps, r.median_queueing_delay_ms, r.median_objective
        );
    }

    let get = |name: &str| rows.iter().find(|r| r.algorithm == name).expect("row");
    let ideal = get("Remy-Phi-ideal");
    let practical = get("Remy-Phi-practical");
    let remy = get("Remy");
    let cubic = get("Cubic");

    println!("\npaper's shape checks:");
    println!(
        "  ideal ≥ practical on objective: {:.3} vs {:.3}  [{}]",
        ideal.median_objective,
        practical.median_objective,
        ideal.median_objective >= practical.median_objective - 0.05
    );
    println!(
        "  Phi variants ≥ plain Remy:      {:.3}/{:.3} vs {:.3}  [{}]",
        ideal.median_objective,
        practical.median_objective,
        remy.median_objective,
        ideal.median_objective >= remy.median_objective - 0.05
    );
    println!(
        "  every Remy variant > Cubic:     min {:.3} vs {:.3}  [{}]",
        remy.median_objective
            .min(ideal.median_objective)
            .min(practical.median_objective),
        cubic.median_objective,
        remy.median_objective > cubic.median_objective
    );
    println!(
        "  queueing delay (ms): Cubic {:.1}, Remy {:.1}, practical {:.1}, ideal {:.1} \
         (the paper's Remy paces more tightly; see EXPERIMENTS.md)",
        cubic.median_queueing_delay_ms,
        remy.median_queueing_delay_ms,
        practical.median_queueing_delay_ms,
        ideal.median_queueing_delay_ms,
    );

    write_json("table3", &rows);
}
