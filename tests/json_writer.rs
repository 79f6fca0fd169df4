//! The JSON the benches write and the e2e suites compare, pinned byte
//! for byte: field order, integers, whole floats as `7.0`, `None` as
//! `null`.

use phi::core::ExperimentSpec;
use phi::sim::packet::FlowId;
use phi::sim::time::{Dur, Time};
use phi::tcp::report::{FlowReport, RunMetrics};
use phi::workload::OnOffConfig;

#[test]
fn written_json_is_pinned() {
    let metrics = RunMetrics {
        throughput_mbps: 2.5,
        queueing_delay_ms: 42.0,
        loss_rate: 0.01,
        mean_rtt_ms: 180.0,
        utilization: 0.7,
        flows_completed: 55,
        flows_aborted: 3,
        bytes: 9_999,
    };
    assert_eq!(
        serde_json::to_string(&metrics).expect("serialize"),
        "{\"throughput_mbps\":2.5,\"queueing_delay_ms\":42.0,\"loss_rate\":0.01,\
         \"mean_rtt_ms\":180.0,\"utilization\":0.7,\"flows_completed\":55,\
         \"flows_aborted\":3,\"bytes\":9999}"
    );

    let report = FlowReport {
        flow: FlowId(7),
        bytes: 123_456,
        segments: 86,
        start: Time::from_millis(10),
        end: Time::from_millis(510),
        min_rtt: None,
        mean_rtt_ms: 163.5,
        rtt_samples: 42,
        retransmits: 3,
        timeouts: 1,
        recoveries: 2,
        aborted: true,
        idle_restarts: 4,
    };
    assert_eq!(
        serde_json::to_string(&report).expect("serialize"),
        "{\"flow\":7,\"bytes\":123456,\"segments\":86,\"start\":10000000,\
         \"end\":510000000,\"min_rtt\":null,\"mean_rtt_ms\":163.5,\"rtt_samples\":42,\
         \"retransmits\":3,\"timeouts\":1,\"recoveries\":2,\"aborted\":true,\
         \"idle_restarts\":4}"
    );

    let spec = ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7);
    assert_eq!(spec.ha, None);
    let json = serde_json::to_string(&spec).expect("serialize");
    assert!(json.contains(",\"ha\":null,"), "{json}");
}
