//! `phi` — command-line front end for the Phi library.
//!
//! ```text
//! phi serve  [--addr 127.0.0.1:7777] [--capacity-mbps 1000] [--window-secs 10]
//!     Run a context server until Ctrl-C (or forever). Senders connect with
//!     the wire protocol in `phi::core::wire` / `phi::core::ContextClient`.
//!
//! phi lookup --addr HOST:PORT [--path N]
//!     One context lookup against a running server (prints u, q, n).
//!
//! phi top    --addr HOST:PORT [--limit 10]
//!     The busiest paths the server knows about, like `top` for the
//!     network weather.
//!
//! phi report --addr HOST:PORT [--path N] --bytes B --duration-ms D
//!            [--mean-rtt-ms R] [--min-rtt-ms M]
//!     Report one finished connection to a running server.
//!
//! phi demo   [--senders 8] [--seconds 30] [--scheme default|tuned|phi]
//!            [--seed 42] [--queue droptail|red]
//!     Run the Figure 1 dumbbell with the chosen provisioning and print
//!     the paper's metrics.
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs).

use std::collections::HashMap;
use std::process::ExitCode;

use phi::core::{
    provision_cubic, provision_cubic_phi, run_experiment, score, ContextClient, ContextServer,
    ContextStore, ExperimentSpec, FlowSummary, Objective, PathKey, PolicyTable, StoreConfig,
};
use phi::sim::queue::DisciplineSpec;
use phi::sim::time::Dur;
use phi::tcp::CubicParams;
use phi::workload::OnOffConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&opts),
        "lookup" => cmd_lookup(&opts),
        "top" => cmd_top(&opts),
        "report" => cmd_report(&opts),
        "demo" => cmd_demo(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  phi serve  [--addr 127.0.0.1:7777] [--capacity-mbps 1000] [--window-secs 10]
  phi lookup --addr HOST:PORT [--path 1]
  phi top    --addr HOST:PORT [--limit 10]
  phi report --addr HOST:PORT [--path 1] --bytes B --duration-ms D
             [--mean-rtt-ms R] [--min-rtt-ms M]
  phi demo   [--senders 8] [--seconds 30] [--scheme default|tuned|phi]
             [--seed 42] [--queue droptail|red]";

type Opts = HashMap<String, String>;

fn parse_opts(rest: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got `{key}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

fn get_parse<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7777".into());
    let capacity_mbps: f64 = get_parse(opts, "capacity-mbps", 1000.0)?;
    let window_secs: u64 = get_parse(opts, "window-secs", 10)?;

    let store = ContextStore::new(StoreConfig {
        window_ns: window_secs * 1_000_000_000,
        capacity_bps: Some(capacity_mbps * 1e6),
        queue_alpha: 0.3,
    });
    let server = ContextServer::start(addr.as_str(), store).map_err(|e| e.to_string())?;
    println!(
        "phi context server on {} (capacity {capacity_mbps} Mbit/s, window {window_secs} s)",
        server.addr()
    );
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_lookup(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("--addr is required")?;
    let path: u64 = get_parse(opts, "path", 1)?;
    let mut client = ContextClient::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let ctx = client.lookup(PathKey(path)).map_err(|e| e.to_string())?;
    println!(
        "path {path}: utilization {:.3}, queue {:.2} ms, competing {}",
        ctx.utilization, ctx.queue_ms, ctx.competing
    );
    Ok(())
}

fn cmd_top(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("--addr is required")?;
    let limit: u16 = get_parse(opts, "limit", 10)?;
    let mut client = ContextClient::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let paths = client.snapshot(limit).map_err(|e| e.to_string())?;
    if paths.is_empty() {
        println!("no paths known yet");
        return Ok(());
    }
    println!(
        "{:<20} {:>12} {:>12} {:>10}",
        "path", "utilization", "queue (ms)", "competing"
    );
    for (key, ctx) in paths {
        println!(
            "{:<20} {:>12.3} {:>12.2} {:>10}",
            key.0, ctx.utilization, ctx.queue_ms, ctx.competing
        );
    }
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("--addr is required")?;
    let path: u64 = get_parse(opts, "path", 1)?;
    let bytes: u64 = get_parse(opts, "bytes", 0)?;
    if bytes == 0 {
        return Err("--bytes is required".into());
    }
    let duration_ms: u64 = get_parse(opts, "duration-ms", 0)?;
    if duration_ms == 0 {
        return Err("--duration-ms is required".into());
    }
    let mean_rtt_ms: f64 = get_parse(opts, "mean-rtt-ms", 0.0)?;
    let min_rtt_ms: f64 = get_parse(opts, "min-rtt-ms", 0.0)?;
    let mut client = ContextClient::connect(addr.as_str()).map_err(|e| e.to_string())?;
    client
        .report(
            PathKey(path),
            FlowSummary {
                bytes,
                duration_ns: duration_ms * 1_000_000,
                mean_rtt_ms,
                min_rtt_ms,
                retransmits: get_parse(opts, "retransmits", 0u32)?,
                timeouts: get_parse(opts, "timeouts", 0u32)?,
            },
        )
        .map_err(|e| e.to_string())?;
    println!("reported {bytes} bytes over {duration_ms} ms on path {path}");
    Ok(())
}

fn cmd_demo(opts: &Opts) -> Result<(), String> {
    let senders: usize = get_parse(opts, "senders", 8)?;
    let seconds: u64 = get_parse(opts, "seconds", 30)?;
    let seed: u64 = get_parse(opts, "seed", 42)?;
    let scheme = opts
        .get("scheme")
        .map(String::as_str)
        .unwrap_or("phi")
        .to_string();
    let queue = match opts.get("queue").map(String::as_str).unwrap_or("droptail") {
        "droptail" => DisciplineSpec::DropTail,
        "red" => DisciplineSpec::Red,
        other => return Err(format!("--queue: unknown discipline `{other}`")),
    };

    let mut spec = ExperimentSpec::new(senders, OnOffConfig::fig2(), Dur::from_secs(seconds), seed);
    spec.queue = queue;
    println!(
        "dumbbell: {senders} senders, {} Mbit/s, {} ms RTT, {seconds}s, scheme `{scheme}`, queue {queue:?}",
        spec.dumbbell.bottleneck_bps / 1_000_000,
        spec.base_rtt_ms()
    );

    let result = match scheme.as_str() {
        "default" => run_experiment(&spec, provision_cubic(CubicParams::default())),
        "tuned" => run_experiment(&spec, provision_cubic(CubicParams::tuned(32.0, 64.0, 0.2))),
        "phi" => run_experiment(&spec, provision_cubic_phi(PolicyTable::reference())),
        other => return Err(format!("--scheme: unknown scheme `{other}`")),
    };
    let m = &result.metrics;
    println!(
        "throughput {:.2} Mbit/s | queueing {:.2} ms | loss {:.3}% | util {:.2} | flows {} | P_l {:.4}",
        m.throughput_mbps,
        m.queueing_delay_ms,
        m.loss_rate * 100.0,
        m.utilization,
        m.flows_completed,
        score(Objective::PowerLoss, m, spec.base_rtt_ms()),
    );
    if scheme == "phi" {
        let (lookups, reports) = result.store.traffic_counters(phi::core::DUMBBELL_PATH);
        println!("context store: {lookups} lookups, {reports} reports");
    }
    Ok(())
}
