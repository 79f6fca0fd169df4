//! Datacenter incast bench: Cubic vs DCTCP through the shared-buffer
//! switch, across fan-in sizes.
//!
//! The backpressure-plane counterpart of the WAN figure benches: a
//! synchronized fan-in of `workers` senders pushes one 64 KB block each
//! through a shallow shared-pool switch (DT admission, DCTCP-style step
//! ECN). Cubic overflows the pool, strands flow tails in 200 ms-floor
//! retransmission timeouts, and collapses; DCTCP rides the ECN marks
//! and finishes near line rate. Reported per cell:
//!
//! - **goodput** — total bytes over the fan-in's makespan (first start
//!   to last completion), the quantity that collapses in the classic
//!   incast figure;
//! - **p99 FCT** — tail flow-completion time, the straggler's story;
//! - switch counters (pool rejections, ECN marks) and sender timeouts.
//!
//! Full mode sweeps fan-in ∈ {8, 16, 32} for both controllers and
//! writes `target/phi-results/dctcp.json` like every other `exp_*`;
//! `--test` runs one reduced cell per controller for CI smoke. The
//! sweep reproduces both halves of the incast literature: DCTCP holds
//! ≥2× Cubic's goodput while its own synchronized slow-start burst fits
//! the pool (fan-in 8, 16), and once the cohort's first window alone
//! overflows the buffer (fan-in 32) DCTCP degrades too — it delays
//! collapse rather than abolishing it.

use std::time::Instant;

use phi_bench::write_json;
use phi_core::harness::{
    provision_cubic, provision_dctcp, run_experiment, ExperimentSpec, ProvisionCtx, Provisioned,
};
use phi_sim::switch::{EcnSpec, SwitchSpec};
use phi_sim::time::Dur;
use phi_tcp::cubic::CubicParams;
use phi_tcp::dctcp::DctcpParams;
use phi_workload::{IncastConfig, OnOffConfig};
use serde::Serialize;

/// One synchronized 64 KB-per-worker burst through a 48 KB shared pool
/// (DT α = 8, step ECN at 9 KB) on a 50 Mbit/s, 2 ms-RTT dumbbell — the
/// same collapse point `tests/e2e_incast.rs` pins.
fn incast_spec(workers: u32) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        workers as usize,
        // Placeholder on/off config; the incast source replaces it.
        OnOffConfig::fig2(),
        Dur::from_secs(10),
        0xDC_7C_B0 + u64::from(workers),
    );
    spec.dumbbell.bottleneck_bps = 50_000_000;
    spec.dumbbell.access_bps = 400_000_000;
    spec.dumbbell.rtt = Dur::from_millis(2);
    let incast = IncastConfig {
        workers,
        bytes_per_worker: 64 * 1024,
        rounds: 1,
        round_gap_secs: 0.0,
        jitter_secs: 0.0,
    };
    spec.with_switch(
        SwitchSpec::shared(48_000)
            .with_alpha(8.0)
            .with_ecn(EcnSpec::step(9_000)),
    )
    .with_incast(incast)
}

#[derive(Serialize)]
struct Row {
    cc: &'static str,
    workers: u32,
    bytes_per_worker: u64,
    flows: u64,
    goodput_mbps: f64,
    mean_fct_ms: f64,
    p99_fct_ms: f64,
    timeouts: u64,
    shared_drops: u64,
    ecn_marked: u64,
    wall_secs: f64,
}

fn drive(
    cc: &'static str,
    workers: u32,
    provision: impl FnMut(ProvisionCtx<'_>) -> Provisioned,
) -> Row {
    let spec = incast_spec(workers);
    let t0 = Instant::now();
    let r = run_experiment(&spec, provision);
    let wall = t0.elapsed().as_secs_f64();

    let reports: Vec<_> = r.per_sender.iter().flatten().collect();
    assert!(!reports.is_empty(), "{cc}/{workers}: no flows completed");
    let bytes: u64 = reports.iter().map(|f| f.bytes).sum();
    let t_first = reports.iter().map(|f| f.start).min().expect("flows ran");
    let t_last = reports.iter().map(|f| f.end).max().expect("flows ran");
    let goodput_mbps = bytes as f64 * 8.0 / (t_last - t_first).as_secs_f64() / 1e6;

    let mut fct_ms: Vec<f64> = reports
        .iter()
        .map(|f| f.duration().as_secs_f64() * 1e3)
        .collect();
    fct_ms.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
    let p99_fct_ms = fct_ms[((fct_ms.len() - 1) as f64 * 0.99).round() as usize];
    let mean_fct_ms = fct_ms.iter().sum::<f64>() / fct_ms.len() as f64;

    let timeouts: u64 = reports.iter().map(|f| f.timeouts).sum();
    let [left, right] = r.switch_stats.expect("switch installed");
    let round3 = |v: f64| (v * 1e3).round() / 1e3;
    let row = Row {
        cc,
        workers,
        bytes_per_worker: 64 * 1024,
        flows: reports.len() as u64,
        goodput_mbps: round3(goodput_mbps),
        mean_fct_ms: round3(mean_fct_ms),
        p99_fct_ms: round3(p99_fct_ms),
        timeouts,
        shared_drops: left.shared_drops + right.shared_drops,
        ecn_marked: left.ecn_marked + right.ecn_marked,
        wall_secs: (wall * 1e4).round() / 1e4,
    };
    println!(
        "dctcp/{cc}_{workers}x64KB          goodput: {:.3} Mbit/s  p99 FCT: {:.1} ms  \
         timeouts: {timeouts}  pool drops: {}  marks: {}  wall: {:.3} s",
        row.goodput_mbps, row.p99_fct_ms, row.shared_drops, row.ecn_marked, row.wall_secs,
    );
    row
}

fn main() {
    // Cargo passes `--bench`; CI's smoke step passes `--test` for one
    // reduced cell per controller.
    let quick = std::env::args().any(|a| a == "--test");
    let fan_ins: &[u32] = if quick { &[8] } else { &[8, 16, 32] };

    let mut rows = Vec::new();
    for &workers in fan_ins {
        let cubic = drive("cubic", workers, provision_cubic(CubicParams::default()));
        let dctcp = drive("dctcp", workers, provision_dctcp(DctcpParams::default()));
        println!(
            "dctcp/claim_{workers} dctcp {:.3} Mbit/s vs cubic {:.3} Mbit/s ({:.2}x)",
            dctcp.goodput_mbps,
            cubic.goodput_mbps,
            dctcp.goodput_mbps / cubic.goodput_mbps,
        );
        // The e2e acceptance margin, re-checked across the sweep: 2x
        // while DCTCP's own synchronized slow-start burst (workers x 2
        // segments) still fits the pool. Past that point (32 x ~2.9 KB
        // > 48 KB) even marked traffic takes pool rejections, so DCTCP
        // merely *delays* collapse — it must still beat Cubic, but the
        // margin narrows (observed 1.71x).
        let floor = if u64::from(workers) * 2 * 1_448 <= 48_000 {
            2.0
        } else {
            1.3
        };
        assert!(
            quick || dctcp.goodput_mbps >= floor * cubic.goodput_mbps,
            "DCTCP lost its {floor}x margin at fan-in {workers}: {:.3} vs {:.3}",
            dctcp.goodput_mbps,
            cubic.goodput_mbps,
        );
        rows.push(cubic);
        rows.push(dctcp);
    }

    if !quick {
        write_json("dctcp", &rows);
    }
}
