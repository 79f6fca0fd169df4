//! The benchmark's metric tables and the result record every run prints.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    // Work completed per host second: packets forwarded
    // (forward_multihop), simulated seconds (dumbbell_cubic_phi,
    // incast_dctcp), lookups answered (ctx_hot_lookup), reports accepted
    // (ctx_wide_ingest).
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer metrics, from the traced run. A layer that a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Exact counts and simulated-time statistics of one untraced unit: a
    // speed-only change must leave every one of them bit-identical.
    lower("sim.engine.events", "count"),
    lower("sim.engine.events_per_pkt", "ratio"),
    lower("sim.engine.events_per_flow", "ratio"),
    lower("sim.sched.scheduled", "count"),
    lower("sim.sched.stale_skip_ratio", "ratio"),
    lower("sim.sched.overflow_ratio", "ratio"),
    lower("sim.sched.peak_pending", "count"),
    lower("sim.queue.drop_ratio", "ratio"),
    higher("sim.switch.admitted", "count"),
    lower("sim.switch.shared_drops", "count"),
    lower("sim.switch.ecn_marked", "count"),
    lower("sim.switch.pauses", "count"),
    higher("tcp.sender.flows_completed", "count"),
    higher("tcp.sender.segments", "count"),
    lower("tcp.sender.retransmit_ratio", "ratio"),
    lower("tcp.sender.timeouts", "count"),
    higher("core.hooks.lookups", "count"),
    higher("core.hooks.reports", "count"),
    higher("sim.link.utilization", "ratio"),
    lower("sim.link.queue_wait_ms", "ms"),
    higher("sim.goodput_mbps", "Mbit/s"),
    lower("result_digest", "hash48"),
    // Host time of one untraced unit.
    lower("run_wall_s", "s"),
    lower("sim.engine.ns_per_event", "ns"),
    // Host time by layer, from the shimmed run.
    lower("sim.engine.self_ns_per_event", "ns"),
    lower("sim.queue.ns_per_op", "ns"),
    lower("sim.queue.ops", "count"),
    lower("tcp.sender.self_ns_per_call", "ns"),
    lower("tcp.sender.calls", "count"),
    lower("tcp.receiver.ns_per_call", "ns"),
    lower("tcp.receiver.calls", "count"),
    lower("tcp.cc.ns_per_call", "ns"),
    lower("tcp.cc.calls", "count"),
    lower("core.hooks.ns_per_lookup", "ns"),
    lower("core.hooks.ns_per_report", "ns"),
    lower("sim.trace.ns_per_record", "ns"),
    lower("share.sim_engine", "ratio"),
    lower("share.sim_queue", "ratio"),
    lower("share.tcp_sender", "ratio"),
    lower("share.tcp_receiver", "ratio"),
    lower("share.tcp_cc", "ratio"),
    lower("share.core_hooks", "ratio"),
    lower("share.sim_trace", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.timer_ns", "ns"),
    lower("trace.span_ns", "ns"),
    // Isolated drives of public functions.
    lower("sim.sched.hold_ns_per_op", "ns"),
    lower("sim.switch.admit_ns_per_op", "ns"),
    lower("core.context.ns_per_lookup", "ns"),
    lower("core.context.ns_per_report", "ns"),
    lower("core.context.window_depth", "count"),
    lower("core.wire.encode_ns_per_report", "ns"),
    lower("core.wire.decode_ns_per_report", "ns"),
    lower("core.wire.bytes_per_report", "B"),
    lower("core.wire.lookup_codec_ns", "ns"),
    lower("core.server.rtt_idle_us", "us"),
    lower("core.server.residual_us", "us"),
    // The ctx workloads' client- and server-side view of the same load.
    higher("core.server.lookups", "count"),
    higher("core.server.reports", "count"),
    lower("core.server.protocol_errors", "count"),
    lower("core.server.rejected", "count"),
    higher("loadgen.reports_sent", "count"),
    higher("loadgen.lookups_sent", "count"),
    lower("loadgen.report_late_p99_ms", "ms"),
    higher("lookups_per_s", "1/s"),
    higher("reports_per_s", "1/s"),
    lower("lookup_p50_us", "us"),
    lower("lookup_p99_us", "us"),
    lower("lookup_p999_us", "us"),
    higher("lookup_samples", "count"),
    // `VmHWM` of the workload's process before any tracing state exists.
    // Demoted from the end-to-end list at calibration: see README.
    lower("peak_rss_mb", "MB"),
];

/// The values of one run, in table order.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Set `name`; a name outside the table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

/// Counts checks against the number attempted and remembers what failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    /// `failed` of `attempted` operations of one kind went wrong.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("CHECK FAILED ({failed} of {attempted}): {what}");
        }
    }
}

/// The last line of a run's standard output.
pub fn result_line(checks: &Checks, metrics: &MetricSet) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            d.name,
            v,
            d.unit
        );
    }
    s.push_str("}}");
    s
}

/// What the orchestrator reads back from a child's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parse a line written by [`result_line`] (not general JSON).
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for part in body.split("\"unit\"") {
        // `..."name": {"value": 1.5, ` precedes every `"unit"`.
        let Some(v_at) = part.rfind("{\"value\": ") else {
            continue;
        };
        let value = part[v_at + 10..]
            .trim_end_matches([',', ' '])
            .parse()
            .ok()?;
        let head = part[..v_at].trim_end_matches([':', ' ']);
        let name = head.trim_end_matches('"');
        let name = &name[name.rfind('"')? + 1..];
        metrics.push((name.to_string(), value));
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut m = MetricSet::new(END_TO_END);
        m.set("work_per_s", 16_512.25);
        m.set("setup_s", 1.2625e-3);
        let mut c = Checks::default();
        c.count(1000, 0, "lookups");
        c.check(true, "stats agree");
        let line = result_line(&c, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1001, \"failed\": 0, "));
        let p = parse_result_line(&line).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (1001, 0));
        assert_eq!(
            p.metrics,
            vec![
                ("work_per_s".to_string(), 16_512.25),
                ("setup_s".to_string(), 1.2625e-3),
            ]
        );
        c.check(false, "expected failure in a unit test");
        assert!(result_line(&c, &m)
            .starts_with("{\"correct\": false, \"attempted\": 1002, \"failed\": 1,"));
        assert_eq!(parse_result_line("no result here"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let from = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[from..];
            &rest[..rest.find(']').expect("section closes")]
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), defs.len(), "{key} length");
            for d in defs {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                if let Some(b) = d.bound {
                    let _ = write!(entry, ", \"bound\": {b}");
                }
                entry.push('}');
                assert!(body.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
    }
}
