//! A3 — §3.1: incentives for adoption, quantified.
//!
//! The paper argues FIFO queueing makes the network *not incentive
//! compatible* (citing Godfrey et al.): a defector that ignores the
//! coordinated parameters can privately gain while the system loses.
//! This harness measures exactly that:
//!
//! * a cooperating population running Phi-optimal parameters,
//! * the same population with one **defector** running maximally
//!   aggressive parameters (huge initial window *and* huge ssthresh,
//!   timid β),
//! * both under the paper's drop-tail FIFO and under RED AQM — the
//!   queueing-discipline ablation DESIGN.md calls out: early random
//!   drops take back much of what the defector grabs from the queue.

use phi_bench::{banner, pct, scale, write_json};
use phi_core::harness::{run_repeated, ExperimentSpec, Provisioned};
use phi_core::{score, Objective};
use phi_sim::queue::DisciplineSpec;
use phi_sim::time::Dur;
use phi_tcp::cubic::{Cubic, CubicParams};
use phi_tcp::hook::NoHook;
use phi_tcp::report::RunMetrics;
use phi_workload::OnOffConfig;
use serde::Serialize;

const DEFECTOR: usize = 0;

fn cooperative_params() -> CubicParams {
    CubicParams::tuned(16.0, 64.0, 0.2)
}

fn defector_params() -> CubicParams {
    CubicParams::tuned(128.0, 65_536.0, 0.1)
}

#[derive(Serialize)]
struct Outcome {
    queue: String,
    defector_present: bool,
    defector_tput: f64,
    cooperator_tput: f64,
    total_power: f64,
    queueing_delay_ms: f64,
    loss: f64,
}

fn run_arm(queue: DisciplineSpec, with_defector: bool, runs: usize, secs: u64) -> Outcome {
    let mut spec = ExperimentSpec::new(10, OnOffConfig::fig2(), Dur::from_secs(secs), 3131);
    spec.queue = queue;
    let results = run_repeated(&spec, runs, move |ctx| {
        let params = if with_defector && ctx.index == DEFECTOR {
            defector_params()
        } else {
            cooperative_params()
        };
        Provisioned {
            factory: Box::new(move |_| Box::new(Cubic::new(params))),
            hook: Box::new(NoHook),
        }
    });
    let base = spec.base_rtt_ms();
    let defector = RunMetrics::mean_of(
        &results
            .iter()
            .map(|r| r.metrics_for(|i| i == DEFECTOR))
            .collect::<Vec<_>>(),
    );
    let cooperators = RunMetrics::mean_of(
        &results
            .iter()
            .map(|r| r.metrics_for(|i| i != DEFECTOR))
            .collect::<Vec<_>>(),
    );
    let total = RunMetrics::mean_of(
        &results
            .iter()
            .map(|r| r.metrics.clone())
            .collect::<Vec<_>>(),
    );
    Outcome {
        queue: format!("{queue:?}"),
        defector_present: with_defector,
        defector_tput: defector.throughput_mbps,
        cooperator_tput: cooperators.throughput_mbps,
        total_power: score(Objective::PowerLoss, &total, base),
        queueing_delay_ms: total.queueing_delay_ms,
        loss: total.loss_rate,
    }
}

fn main() {
    let sc = scale();
    banner("Incentives (§3.1): what does one defector gain, and who pays?");

    let mut outs = Vec::new();
    println!(
        "{:<10} {:<10} {:>14} {:>16} {:>12} {:>11} {:>8}",
        "queue", "defector", "defector tput", "cooperator tput", "total P_l", "queue(ms)", "loss"
    );
    for queue in [DisciplineSpec::DropTail, DisciplineSpec::Red] {
        for with_defector in [false, true] {
            let o = run_arm(queue, with_defector, sc.runs, sc.sim_secs);
            println!(
                "{:<10} {:<10} {:>14.2} {:>16.2} {:>12.4} {:>11.2} {:>8}",
                o.queue,
                if o.defector_present { "yes" } else { "no" },
                o.defector_tput,
                o.cooperator_tput,
                o.total_power,
                o.queueing_delay_ms,
                pct(o.loss)
            );
            outs.push(o);
        }
    }

    let g = |queue: &str, def: bool| {
        outs.iter()
            .find(|o| o.queue == queue && o.defector_present == def)
            .expect("arm")
    };
    let dt_coop = g("DropTail", false);
    let dt_def = g("DropTail", true);
    let red_coop = g("Red", false);
    let red_def = g("Red", true);

    let dt_private_gain = dt_def.defector_tput / dt_coop.defector_tput;
    let red_private_gain = red_def.defector_tput / red_coop.defector_tput;
    println!("\ndrop-tail: the defector multiplies its own throughput by {dt_private_gain:.2}x...");
    println!(
        "...while each cooperator's throughput falls {:.2} -> {:.2} Mbit/s and everyone's \
         queueing rises {:.1} -> {:.1} ms: the gain is private, the cost is shared \
         (FIFO is not incentive compatible, per §3.1).",
        dt_coop.cooperator_tput,
        dt_def.cooperator_tput,
        dt_coop.queueing_delay_ms,
        dt_def.queueing_delay_ms,
    );
    println!(
        "\nRED: the same defection yields {red_private_gain:.2}x (vs {dt_private_gain:.2}x) \
         at lower shared queueing ({:.1} vs {:.1} ms) — early random drops reclaim part of \
         the stolen queue.",
        red_def.queueing_delay_ms, dt_def.queueing_delay_ms,
    );

    assert!(
        dt_private_gain > 1.1,
        "under drop-tail FIFO, defection must pay privately ({dt_private_gain:.2}x)"
    );
    assert!(
        dt_def.queueing_delay_ms > dt_coop.queueing_delay_ms,
        "the defector's queue must hurt everyone"
    );
    assert!(
        dt_def.cooperator_tput < dt_coop.cooperator_tput,
        "cooperators must pay for the defection"
    );

    write_json("incentives", &outs);
}
