//! `phi-benchmark`: five sustained workloads, their end-to-end metrics,
//! and an outside-in per-layer trace of the phi workspace.
//!
//! One run is one workload in one process:
//!
//! ```text
//! phi-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. Without `--workload` (or with `--repeat`) the binary runs
//! each workload in a fresh child process of itself and summarises;
//! `--check` runs every workload's correctness checks at small scale.
//! See README.md beside this crate's manifest.

mod ctx;
mod fingerprint;
mod isolated;
mod metrics;
mod replay;
mod shims;
mod sim;
mod span;
mod stats;

use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ctx::{CtxInputs, CtxKind, LoadResult, Rig};
use metrics::{Better, Checks, MetricSet, END_TO_END, PER_LAYER};
use sim::{Scenario, SimKind, SimOutcome};
use span::{Calibration, Layer};
use stats::{digest48, percentile, Spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ForwardMultihop,
    DumbbellCubicPhi,
    IncastDctcp,
    CtxHotLookup,
    CtxWideIngest,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::ForwardMultihop,
        Workload::DumbbellCubicPhi,
        Workload::IncastDctcp,
        Workload::CtxHotLookup,
        Workload::CtxWideIngest,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ForwardMultihop => "forward_multihop",
            Workload::DumbbellCubicPhi => "dumbbell_cubic_phi",
            Workload::IncastDctcp => "incast_dctcp",
            Workload::CtxHotLookup => "ctx_hot_lookup",
            Workload::CtxWideIngest => "ctx_wide_ingest",
        }
    }

    fn kind(self) -> Kind {
        match self {
            Workload::ForwardMultihop => Kind::Sim(SimKind::Forward),
            Workload::DumbbellCubicPhi => Kind::Sim(SimKind::Dumbbell),
            Workload::IncastDctcp => Kind::Sim(SimKind::Incast),
            Workload::CtxHotLookup => Kind::Ctx(CtxKind::HotLookup),
            Workload::CtxWideIngest => Kind::Ctx(CtxKind::WideIngest),
        }
    }
}

/// A simulator scenario or a context-plane load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim(SimKind),
    Ctx(CtxKind),
}

const USAGE: &str = "\
usage: phi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                     [--repeat [N]] [--seed-step K] [--check]

  --workload NAME   forward_multihop | dumbbell_cubic_phi | incast_dctcp |
                    ctx_hot_lookup | ctx_wide_ingest (default: all, each in
                    a fresh child process)
  --seed N          input-generation seed (default 1)
  --seconds S       length of the timed section (default 20)
  --trace [0|1]     1: the shimmed per-layer run; 0 (default): end-to-end
  --repeat [N]      N fresh-process runs per workload (5 if N is omitted):
                    prints median, quartiles, min, max and spread of every
                    metric; non-zero exit when an end-to-end spread exceeds
                    the metric's bound
  --seed-step K     with --repeat: run r uses seed N + r*K (default 0)
  --check           every workload's correctness checks at small scale";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u32>,
    seed_step: u64,
    check: bool,
}

impl Args {
    /// Scenario length in units. Untraced: the fixed unit, repeated.
    /// Traced: one scenario `--seconds` units long (≈ an eighth of that in
    /// untraced host time).
    fn scale(&self) -> f64 {
        if self.trace {
            self.seconds
        } else {
            1.0
        }
    }

    fn fingerprint(&self) -> String {
        fingerprint::fingerprint(self.seed, self.seconds, self.scale())
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
        seed_step: 0,
        check: false,
    };
    let mut it = argv.iter().peekable();
    // A flag's value, or `None` when the next token is another flag.
    fn optional<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a str> {
        it.next_if(|s| !s.starts_with("--")).map(String::as_str)
    }
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| optional(&mut it).ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seed-step" => {
                a.seed_step = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed-step: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match optional(&mut it) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                a.repeat = Some(match optional(&mut it) {
                    None => 5,
                    Some(n) => n.parse().map_err(|e| format!("--repeat: {e}"))?,
                })
            }
            "--check" => a.check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("phi-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check_mode(&args);
    }
    match (args.workload, args.repeat) {
        (Some(w), None) => run_single(w, &args),
        _ => orchestrate(&args),
    }
}

// --- one workload, one process -----------------------------------------------

/// Unit time between two set-ups of a run (≈ 40 set-ups in 20 s).
const SETUP_EVERY_S: f64 = 0.5;
/// The same-seed determinism pre-check runs at this fraction of a unit.
const PRECHECK_SCALE: f64 = 0.25;

fn run_single(w: Workload, args: &Args) -> ExitCode {
    // Only the traced ctx run drives the real server over loopback.
    if matches!(w.kind(), Kind::Ctx(_)) && args.trace && fingerprint::nproc() < 2 {
        eprintln!(
            "phi-benchmark: {} needs two cores (client and server threads would \
             time-share one and measure the scheduler); available_parallelism() = {}",
            w.name(),
            fingerprint::nproc()
        );
        return ExitCode::from(2);
    }
    println!(
        "workload: {}  seed: {}  seconds: {}  trace: {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint: {}", args.fingerprint());
    let mut checks = Checks::default();
    let set = match (w.kind(), args.trace) {
        (Kind::Sim(kind), false) => sim_end_to_end(kind, args, &mut checks),
        (Kind::Sim(kind), true) => sim_per_layer(w, kind, args, &mut checks),
        (Kind::Ctx(kind), false) => ctx_end_to_end(kind, args, &mut checks),
        (Kind::Ctx(kind), true) => ctx_per_layer(kind, args, &mut checks),
    };
    for (d, v) in set.iter() {
        checks.check(v.is_finite(), d.name);
        println!("{:<34} {:>18.6} {}", d.name, v, d.unit);
    }
    println!("{}", metrics::result_line(&checks, &set));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checks every simulator run must pass, whatever its length.
fn check_outcome(kind: SimKind, o: &SimOutcome, checks: &mut Checks) {
    checks.check(!o.terminated, "run ended by a budget");
    checks.check(o.sched.conserved(), "SchedStats::conserved()");
    checks.check(
        o.census.is_none_or(|c| c.conserved()),
        "PacketCensus::conserved()",
    );
    checks.check(o.events > 0, "events processed");
    match kind {
        SimKind::Forward => checks.check(o.packets > 0, "packets injected"),
        SimKind::Dumbbell => {
            checks.check(o.flows_completed > 0, "flows completed");
            checks.check(
                o.hook_lookups > 0 && o.hook_reports > 0,
                "context hooks used",
            );
        }
        SimKind::Incast => {
            checks.check(o.flows_completed > 0, "flows completed");
            checks.check(o.switch.ecn_marked > 0, "switch marked ECN");
            checks.check(o.switch.shared_drops > 0, "shared pool dropped");
            checks.check(o.switch.pauses > 0, "PFC paused an ingress");
        }
    }
}

fn same_result(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.events == b.events && a.sched == b.sched && a.digest == b.digest
}

/// What the timed section of an end-to-end run collected (seconds), and
/// the state its units ran on.
struct Timings<S> {
    setups: Vec<f64>,
    units: Vec<f64>,
    state: S,
}

/// The timed section of an end-to-end run: `seconds` of units, with a
/// complete set-up before the first and another after every
/// [`SETUP_EVERY_S`] of them. Set-up is repeated *through* the run, not
/// only ahead of it, so that its samples see the same spread of host
/// conditions as the units do: five back-to-back set-ups at process start
/// all fell into one burst of interference often enough that medians of
/// ten runs, taken minutes apart, differed by half. Units run on the first
/// set-up's state; a set-up between two units is outside both units' time.
fn measure<S>(
    seconds: f64,
    checks: &mut Checks,
    mut setup: impl FnMut(&mut Checks) -> S,
    mut unit: impl FnMut(&mut S, &mut Checks) -> f64,
) -> Timings<S> {
    let mut timed_setup = |checks: &mut Checks| {
        let t0 = Instant::now();
        let state = setup(checks);
        (state, t0.elapsed().as_secs_f64())
    };
    let (state, first) = timed_setup(checks);
    let mut t = Timings {
        setups: vec![first],
        units: Vec::new(),
        state,
    };
    let (mut measured, mut since_setup) = (0.0, 0.0);
    while t.units.is_empty() || measured < seconds {
        let wall = unit(&mut t.state, checks);
        t.units.push(wall);
        measured += wall;
        since_setup += wall;
        if since_setup >= SETUP_EVERY_S && measured < seconds {
            t.setups.push(timed_setup(checks).1);
            since_setup = 0.0;
        }
    }
    t
}

impl<S> Timings<S> {
    /// Prints both series and returns `(fastest unit, fastest set-up)`.
    ///
    /// The fastest, not the median one: a unit (or a set-up) is the same
    /// deterministic computation every time, so whatever it takes beyond
    /// its minimum is interference, and on a shared host interference
    /// comes in bursts of seconds to minutes. Between runs of identical
    /// code the median of a 10 s run moved by tens of percent, the
    /// minimum by a few.
    fn report(&self) -> (f64, f64) {
        let [units, setups] =
            [("units", &self.units), ("set-ups", &self.setups)].map(|(what, xs)| {
                let s = Spread::of(xs);
                println!(
                    "{what}: {}  fastest {:.5} s  median {:.5} s  slowest {:.5} s",
                    xs.len(),
                    s.min,
                    s.median,
                    s.max,
                );
                s.min
            });
        (units, setups)
    }
}

fn sim_end_to_end(kind: SimKind, args: &Args, checks: &mut Checks) -> MetricSet {
    let sc = Scenario {
        kind,
        seed: args.seed,
        scale: 1.0,
    };
    let mut first: Option<SimOutcome> = None;
    let timings = measure(
        args.seconds,
        checks,
        // Set-up: everything before a timed unit — building the scenario
        // and the same-seed determinism pre-check at small scale.
        |checks| {
            let pre = Scenario {
                scale: PRECHECK_SCALE,
                ..sc
            };
            let (a, b) = (pre.run(), pre.run());
            checks.check(same_result(&a, &b), "pre-check: same seed, same result");
        },
        // The fixed unit, over and over.
        |(), checks| {
            let o = sc.run();
            check_outcome(kind, &o, checks);
            let wall = o.wall_s;
            match &first {
                Some(f) => checks.check(same_result(f, &o), "every unit repeats the first"),
                None => first = Some(o),
            }
            wall
        },
    );
    let first = first.expect("at least one unit ran");
    if kind == SimKind::Forward {
        checks.check(
            (0.02..=0.10).contains(&first.drop_ratio),
            "forward_multihop drops 2–10 % of its packets",
        );
    }
    let (unit_s, setup_s) = timings.report();
    println!(
        "exact: events={} scheduled={} digest={:016x}",
        first.events, first.sched.scheduled, first.digest
    );
    let mut m = MetricSet::new(END_TO_END);
    m.set("work_per_s", first.work / unit_s);
    m.set("setup_s", setup_s);
    println!("peak_rss_mb: {:.3}", fingerprint::peak_rss_mb());
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sim_per_layer(w: Workload, kind: SimKind, args: &Args, checks: &mut Checks) -> MetricSet {
    let sc = Scenario {
        kind,
        seed: args.seed,
        scale: args.scale(),
    };
    // Untraced reference, twice: the first run of a process pays for
    // page faults and allocator growth, the faster one is the fair base
    // for the tracing overhead.
    let (a, b) = (sc.run(), sc.run());
    check_outcome(kind, &a, checks);
    checks.check(same_result(&a, &b), "same seed, same result");
    let base = if a.wall_s <= b.wall_s { a } else { b };
    let peak_rss_mb = fingerprint::peak_rss_mb();

    let cal = Calibration::measure();
    // ≈ 3 spans per event; keep the full records under the cap and
    // spread over the whole run.
    let sample_every = (base.events * 3 / span::MAX_RECORDS as u64).max(1);
    span::begin(sample_every);
    let t = sc.run_traced();
    let collected = span::end();
    check_outcome(kind, &t, checks);
    checks.check(
        t.events == base.events,
        "traced run reproduces sim.engine.events",
    );
    checks.check(
        t.digest == base.digest,
        "traced run reproduces result_digest",
    );
    if let (Some(c), Some((delivered, dropped))) = (t.census, t.traced) {
        checks.check(
            delivered == c.delivered && dropped == c.dropped,
            "packet tracer saw every delivery and drop the census counts",
        );
    }

    let layers = span::by_layer(&collected.aggs, &cal);
    let shares = span::shares(&layers);
    checks.check(
        (shares.iter().sum::<f64>() - 1.0).abs() < 0.01,
        "layer shares sum to 1",
    );
    let agg = |layer: Layer, call: span::Call| {
        collected
            .aggs
            .iter()
            .find(|x| x.layer == layer && x.call == call)
            .map_or(0.0, |x| ratio(cal.self_ns(x), x.count as f64))
    };
    let per_call = |l: Layer| ratio(layers[l as usize].self_ns, layers[l as usize].calls as f64);

    let trace_path = write_trace(w, args, &cal, &collected);
    println!(
        "traced: wall {:.3} s vs untraced {:.3} s; {} spans, {} full records → {}",
        t.wall_s,
        base.wall_s,
        layers.iter().map(|l| l.calls).sum::<u64>(),
        collected.records.len(),
        trace_path.as_deref().unwrap_or("(not written)"),
    );
    println!("result_digest (full): {:016x}", base.digest);

    let mut m = MetricSet::new(PER_LAYER);
    let ev = base.events as f64;
    m.set("sim.engine.events", ev);
    m.set("sim.engine.events_per_pkt", ratio(ev, base.packets as f64));
    m.set(
        "sim.engine.events_per_flow",
        ratio(ev, base.flows_completed as f64),
    );
    let scheduled = base.sched.scheduled as f64;
    m.set("sim.sched.scheduled", scheduled);
    m.set(
        "sim.sched.stale_skip_ratio",
        ratio(base.sched.skipped_stale as f64, scheduled),
    );
    m.set(
        "sim.sched.overflow_ratio",
        ratio(base.sched.overflowed as f64, scheduled),
    );
    m.set("sim.sched.peak_pending", base.sched.peak_pending as f64);
    m.set("sim.queue.drop_ratio", base.drop_ratio);
    m.set("sim.switch.admitted", base.switch.admitted as f64);
    m.set("sim.switch.shared_drops", base.switch.shared_drops as f64);
    m.set("sim.switch.ecn_marked", base.switch.ecn_marked as f64);
    m.set("sim.switch.pauses", base.switch.pauses as f64);
    m.set("tcp.sender.flows_completed", base.flows_completed as f64);
    m.set("tcp.sender.segments", base.segments as f64);
    m.set(
        "tcp.sender.retransmit_ratio",
        ratio(base.retransmits as f64, base.segments as f64),
    );
    m.set("tcp.sender.timeouts", base.timeouts as f64);
    m.set("core.hooks.lookups", base.hook_lookups as f64);
    m.set("core.hooks.reports", base.hook_reports as f64);
    m.set("sim.link.utilization", base.utilization);
    m.set("sim.link.queue_wait_ms", base.queue_wait_ms);
    m.set("sim.goodput_mbps", base.goodput_mbps);
    m.set("result_digest", digest48(base.digest));

    m.set("peak_rss_mb", peak_rss_mb);
    m.set("run_wall_s", base.wall_s);
    m.set("sim.engine.ns_per_event", base.wall_s * 1e9 / ev);
    m.set(
        "sim.engine.self_ns_per_event",
        layers[Layer::Engine as usize].self_ns / ev,
    );
    m.set("sim.queue.ns_per_op", per_call(Layer::Queue));
    m.set("sim.queue.ops", layers[Layer::Queue as usize].calls as f64);
    m.set("tcp.sender.self_ns_per_call", per_call(Layer::Sender));
    m.set(
        "tcp.sender.calls",
        layers[Layer::Sender as usize].calls as f64,
    );
    m.set("tcp.receiver.ns_per_call", per_call(Layer::Receiver));
    m.set(
        "tcp.receiver.calls",
        layers[Layer::Receiver as usize].calls as f64,
    );
    m.set("tcp.cc.ns_per_call", per_call(Layer::Cc));
    m.set("tcp.cc.calls", layers[Layer::Cc as usize].calls as f64);
    m.set(
        "core.hooks.ns_per_lookup",
        agg(Layer::Hooks, span::Call::Lookup),
    );
    m.set(
        "core.hooks.ns_per_report",
        agg(Layer::Hooks, span::Call::Report),
    );
    m.set("sim.trace.ns_per_record", per_call(Layer::Tracer));
    for (name, l) in [
        ("share.sim_engine", Layer::Engine),
        ("share.sim_queue", Layer::Queue),
        ("share.tcp_sender", Layer::Sender),
        ("share.tcp_receiver", Layer::Receiver),
        ("share.tcp_cc", Layer::Cc),
        ("share.core_hooks", Layer::Hooks),
        ("share.sim_trace", Layer::Tracer),
    ] {
        m.set(name, shares[l as usize]);
    }
    m.set("trace.overhead_frac", t.wall_s / base.wall_s - 1.0);
    m.set("trace.timer_ns", cal.timer_ns);
    m.set("trace.span_ns", cal.span_outer_ns);

    m.set(
        "sim.sched.hold_ns_per_op",
        isolated::sched_hold_ns(base.sched.peak_pending, args.seed),
    );
    if kind == SimKind::Incast {
        m.set(
            "sim.switch.admit_ns_per_op",
            isolated::switch_admit_ns(args.seed),
        );
    }
    m
}

/// Where traces go: next to the build, which `.gitignore` already covers.
fn write_trace(w: Workload, args: &Args, cal: &Calibration, c: &span::Collected) -> Option<String> {
    let fp = args.fingerprint();
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = format!("{dir}/phi-benchmark");
    let path = format!("{dir}/{}.trace.json", w.name());
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, span::to_json(w.name(), args.seed, &fp, cal, c)))
        .map_err(|e| eprintln!("phi-benchmark: could not write {path}: {e}"))
        .ok()
        .map(|()| path)
}

/// The real server over loopback: inputs from the seed, server start,
/// every connection, the window warm-up, then `timed` of load.
fn ctx_loopback(
    kind: CtxKind,
    seed: u64,
    timed: Duration,
) -> std::io::Result<(CtxInputs, Rig, LoadResult)> {
    let inputs = CtxInputs::generate(kind, seed);
    let mut rig = Rig::start(kind)?;
    let load = ctx::drive(&mut rig, &inputs, timed);
    Ok((inputs, rig, load))
}

/// What the load generator counted must be what the server counted.
fn check_ctx(rig: &Rig, load: &LoadResult, checks: &mut Checks) {
    let stats = rig.server.stats();
    let ops = load.lookups_sent + load.batches_sent;
    checks.count(
        ops,
        load.client_errors.min(ops),
        load.first_error.as_deref().unwrap_or("client error"),
    );
    checks.count(
        load.lookups_sent,
        load.bad_replies,
        "lookup reply out of range",
    );
    checks.check(
        stats.lookups.load(Ordering::Relaxed) == load.lookups_sent,
        "ServerStats.lookups equals lookups sent",
    );
    checks.check(
        stats.reports.load(Ordering::Relaxed) == load.reports_sent,
        "ServerStats.reports equals reports sent",
    );
    checks.check(
        stats.protocol_errors.load(Ordering::Relaxed) == 0,
        "no protocol errors",
    );
    checks.check(
        stats.rejected.load(Ordering::Relaxed) == 0,
        "no connection shed",
    );
    checks.check(
        load.generator_kept_up(),
        "open-loop generator kept to its timetable (run invalid otherwise)",
    );
}

fn ctx_end_to_end(kind: CtxKind, args: &Args, checks: &mut Checks) -> MetricSet {
    let mut first: Option<replay::UnitOutcome> = None;
    let timings = measure(
        args.seconds,
        checks,
        // Set-up: inputs from the seed, an empty sharded store, and the
        // fill — one whole unit that brings every window to its steady depth.
        |checks| {
            let mut r = replay::Replay::new(kind, args.seed);
            let fill = r.unit();
            checks.count(
                fill.lookups + fill.reports,
                fill.bad_replies,
                "fill replies",
            );
            r
        },
        // The same window of traffic, over and over.
        |replay, checks| {
            let u = replay.unit();
            checks.count(u.lookups + u.reports, u.bad_replies, "replies in range");
            match &first {
                Some(f) => checks.check(
                    (f.lookups, f.reports, f.digest) == (u.lookups, u.reports, u.digest),
                    "every unit repeats the first",
                ),
                None => first = Some(u),
            }
            u.wall_s
        },
    );
    let first = first.expect("at least one unit ran");
    let (unit_s, setup_s) = timings.report();
    println!(
        "per unit {} lookups + {} reports at window depth {}",
        first.lookups,
        first.reports,
        timings.state.depth(),
    );
    println!(
        "exact: lookups={} reports={} digest={:016x}",
        first.lookups, first.reports, first.digest
    );
    let mut m = MetricSet::new(END_TO_END);
    m.set("work_per_s", timings.state.work_per_unit() / unit_s);
    m.set("setup_s", setup_s);
    println!("peak_rss_mb: {:.3}", fingerprint::peak_rss_mb());
    m
}

fn ctx_per_layer(kind: CtxKind, args: &Args, checks: &mut Checks) -> MetricSet {
    let mut m = MetricSet::new(PER_LAYER);
    // Half the time under load, the rest for the isolated drives.
    let timed = Duration::from_secs_f64(args.seconds / 2.0);
    let (inputs, rig, load) = match ctx_loopback(kind, args.seed, timed) {
        Ok(x) => x,
        Err(e) => {
            checks.check(false, &format!("server start: {e}"));
            return m;
        }
    };
    check_ctx(&rig, &load, checks);
    m.set("peak_rss_mb", fingerprint::peak_rss_mb());
    let stats = rig.server.stats();
    m.set(
        "core.server.lookups",
        stats.lookups.load(Ordering::Relaxed) as f64,
    );
    m.set(
        "core.server.reports",
        stats.reports.load(Ordering::Relaxed) as f64,
    );
    m.set(
        "core.server.protocol_errors",
        stats.protocol_errors.load(Ordering::Relaxed) as f64,
    );
    m.set(
        "core.server.rejected",
        stats.rejected.load(Ordering::Relaxed) as f64,
    );
    rig.server.shutdown();

    m.set("loadgen.reports_sent", load.reports_sent as f64);
    m.set("loadgen.lookups_sent", load.lookups_sent as f64);
    m.set(
        "loadgen.report_late_p99_ms",
        percentile(&mut load.report_late_ms.clone(), 0.99).unwrap_or(0.0),
    );
    m.set("lookups_per_s", load.lookups_per_s());
    m.set("reports_per_s", load.reports_per_s());
    let p50 = load.p(0.5);
    m.set("lookup_p50_us", p50);
    m.set("lookup_p99_us", load.p(0.99));
    m.set("lookup_p999_us", load.p(0.999));
    m.set("lookup_samples", load.lookup_us.len() as f64);
    let depth = load.window_depth(&inputs);
    m.set("core.context.window_depth", depth);

    // The client call is the root span; these drives supply its children.
    let store = isolated::store_drive(&inputs, depth);
    m.set("core.context.ns_per_lookup", store.ns_per_lookup);
    m.set("core.context.ns_per_report", store.ns_per_report);
    let wire = isolated::wire_drive(&inputs);
    m.set("core.wire.encode_ns_per_report", wire.encode_ns_per_report);
    m.set("core.wire.decode_ns_per_report", wire.decode_ns_per_report);
    m.set("core.wire.bytes_per_report", wire.bytes_per_report);
    m.set("core.wire.lookup_codec_ns", wire.lookup_codec_ns);
    match isolated::idle_rtt_us() {
        Ok(idle) => {
            m.set("core.server.rtt_idle_us", idle);
            // What is left of a loaded lookup after the idle round trip
            // and the store's own work: lock wait and queueing behind
            // report batches.
            m.set(
                "core.server.residual_us",
                (p50 - idle - store.ns_per_lookup / 1e3).max(0.0),
            );
        }
        Err(e) => checks.check(false, &format!("idle server: {e}")),
    }
    m.set("trace.timer_ns", Calibration::measure().timer_ns);
    m
}

// --- every workload in a fresh child process ------------------------------------

fn orchestrate(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("phi-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let repeat = args.repeat.unwrap_or(1).max(1);
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    let t0 = Instant::now();
    for w in workloads {
        // values[metric][run]
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
        let mut exact: Vec<(u64, String)> = Vec::new();
        for r in 0..repeat {
            let seed = args
                .seed
                .wrapping_add(u64::from(r).wrapping_mul(args.seed_step));
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
                Err(e) => {
                    eprintln!("phi-benchmark: spawning {} failed: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            if repeat == 1 {
                print!("{stdout}");
            }
            if let Some(line) = stdout.lines().find(|l| l.starts_with("exact: ")) {
                exact.push((seed, line.to_string()));
            }
            match stdout.lines().last().and_then(metrics::parse_result_line) {
                Some(res) => {
                    if !res.correct {
                        eprintln!(
                            "{} run {r}: {} of {} checks failed",
                            w.name(),
                            res.failed,
                            res.attempted
                        );
                        ok = false;
                    }
                    for (i, d) in defs.iter().enumerate() {
                        match res.metrics.iter().find(|(n, _)| n == d.name) {
                            Some((_, v)) => values[i].push(*v),
                            None => {
                                eprintln!("{} run {r}: metric {} missing", w.name(), d.name);
                                ok = false;
                            }
                        }
                    }
                    if repeat > 1 {
                        println!("{} run {r} (seed {seed}): ok", w.name());
                    }
                }
                None => {
                    eprintln!("{} run {r}: no result line\n{stdout}", w.name());
                    ok = false;
                }
            }
        }
        if repeat > 1 {
            ok &= summarise(w, defs, &values, args.trace);
            // Same seed, same simulator: every exact count must repeat.
            if matches!(w.kind(), Kind::Sim(_)) {
                for pair in exact.windows(2) {
                    if pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1 {
                        eprintln!(
                            "{}: exact counts differ between runs:\n  {}\n  {}",
                            w.name(),
                            pair[0].1,
                            pair[1].1
                        );
                        ok = false;
                    }
                }
            }
        }
    }
    println!("total: {:.1} s", t0.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print one workload's repeated-run table; false when an end-to-end
/// metric's interquartile spread exceeds its bound.
fn summarise(w: Workload, defs: &[metrics::MetricDef], values: &[Vec<f64>], trace: bool) -> bool {
    let mut ok = true;
    println!(
        "\n{}: {} runs\n{:<34} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        w.name(),
        values.first().map_or(0, Vec::len),
        "metric",
        "median",
        "q1",
        "q3",
        "min",
        "max",
        "iqr/med",
        "rng/med",
        "bound"
    );
    for (d, xs) in defs.iter().zip(values) {
        if xs.len() < 2 || (trace && xs.iter().all(|&x| x == 0.0)) {
            continue;
        }
        let s = Spread::of(xs);
        let verdict = match d.bound {
            // Set-up time is held to its bound across commits, not
            // across the runs of one.
            Some(b) if d.name != "setup_s" && s.iqr_frac() > b => {
                ok = false;
                format!("{b:>6} SPREAD EXCEEDS BOUND")
            }
            Some(b) => format!("{b:>6}"),
            None => String::new(),
        };
        println!(
            "{:<34} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {}{}",
            d.name,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.iqr_frac(),
            s.range_frac(),
            verdict,
            match d.better {
                Better::Lower => "  (lower is better)",
                Better::Higher => "  (higher is better)",
            },
        );
    }
    ok
}

// --- --check -------------------------------------------------------------------

/// One unit of every workload: the invariants, the determinism contract,
/// the traced rebuild's fidelity, and the ctx load generator's
/// bookkeeping — in seconds, not minutes.
fn check_mode(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let mut failed = 0;
    for w in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        let mut checks = Checks::default();
        match w.kind() {
            Kind::Sim(kind) => check_sim(kind, args.seed, &mut checks),
            Kind::Ctx(kind) => check_ctx_workload(kind, args.seed, &mut checks),
        }
        println!(
            "check {:<20} {} ({} attempted, {} failed)",
            w.name(),
            if checks.failed == 0 { "ok" } else { "FAILED" },
            checks.attempted,
            checks.failed
        );
        failed += checks.failed;
    }
    println!("check total: {:.1} s", t0.elapsed().as_secs_f64());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_sim(kind: SimKind, seed: u64, checks: &mut Checks) {
    let sc = Scenario {
        kind,
        seed,
        scale: 1.0,
    };
    let (a, b) = (sc.run(), sc.run());
    check_outcome(kind, &a, checks);
    checks.check(
        same_result(&a, &b),
        "same seed ⇒ identical counts and digest",
    );
    let other = Scenario {
        seed: seed.wrapping_add(1),
        ..sc
    }
    .run();
    checks.check(
        other.digest != a.digest,
        "different seed ⇒ different digest",
    );
    span::begin(64);
    let t = sc.run_traced();
    let collected = span::end();
    check_outcome(kind, &t, checks);
    checks.check(
        same_result(&a, &t),
        "traced rebuild reproduces the untraced run",
    );
    checks.check(
        t.census.is_some_and(|c| c.conserved()),
        "traced run's census conserved",
    );
    checks.check(!collected.aggs.is_empty(), "spans recorded");
}

fn check_ctx_workload(kind: CtxKind, seed: u64, checks: &mut Checks) {
    // The replayed request path: periodic units, seed-determined.
    let run = |seed| {
        let mut r = replay::Replay::new(kind, seed);
        let fill = r.unit();
        (fill, r.unit(), r.unit())
    };
    let (fill, a, b) = run(seed);
    checks.count(
        fill.lookups + fill.reports + 2 * (a.lookups + a.reports),
        fill.bad_replies + a.bad_replies + b.bad_replies,
        "every replayed reply in range",
    );
    checks.check(a.digest == b.digest, "every unit repeats the first");
    checks.check(
        run(seed).1.digest == a.digest,
        "same seed ⇒ identical replies",
    );
    checks.check(
        run(seed.wrapping_add(1)).1.digest != a.digest,
        "different seed ⇒ different replies",
    );
    // The real server over loopback, briefly.
    if fingerprint::nproc() < 2 {
        checks.check(false, "the loopback ctx run needs two cores");
        return;
    }
    match ctx_loopback(kind, seed, Duration::from_millis(500)) {
        Ok((_, rig, load)) => {
            check_ctx(&rig, &load, checks);
            checks.check(!load.lookup_us.is_empty(), "lookups were timed");
            checks.check(load.reports_sent > 0, "reports were sent");
            rig.server.shutdown();
        }
        Err(e) => checks.check(false, &format!("server start: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse("--workload ctx_hot_lookup --seed 42 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::CtxHotLookup));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        assert!(parse("--workload incast_dctcp --trace 1").unwrap().trace);
        // Bare flags take their defaults.
        let a = parse("--trace --repeat --seed 3").unwrap();
        assert_eq!((a.trace, a.repeat, a.seed), (true, Some(5), 3));
        assert_eq!(parse("--repeat 10").unwrap().repeat, Some(10));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn set_up_repeats_through_the_timed_section() {
        let (mut setups, mut units) = (0, 0);
        let t = measure(
            2.0,
            &mut Checks::default(),
            |_| {
                setups += 1;
                setups
            },
            |state, _| {
                assert_eq!(*state, 1, "units run on the first set-up's state");
                units += 1;
                0.3
            },
        );
        // Seven 0.3 s units reach 2 s; a set-up follows every second one
        // (0.6 s ≥ SETUP_EVERY_S) except the last.
        assert_eq!((t.units.len(), t.setups.len()), (7, 4));
        assert_eq!((units, setups, t.state), (7, 4, 1));
    }

    #[test]
    fn a_small_forward_run_is_conserved_and_repeatable() {
        let sc = Scenario {
            kind: SimKind::Forward,
            seed: 9,
            scale: 0.01,
        };
        let (a, b) = (sc.run(), sc.run());
        let mut checks = Checks::default();
        check_outcome(SimKind::Forward, &a, &mut checks);
        assert_eq!(checks.failed, 0);
        assert!(same_result(&a, &b));
        assert_ne!(Scenario { seed: 10, ..sc }.run().digest, a.digest);
    }
}
