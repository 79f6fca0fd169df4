//! Serde round-trips for every public configuration and result type:
//! experiment specs must be storable (configs in repos, results in
//! EXPERIMENTS provenance), and a learned Remy tree must be shippable
//! from the trainer to the fleet.

use phi::core::{ExperimentSpec, FlowSummary, HaSpec, PolicyTable, ServerCrashPlan, StoreConfig};
use phi::remy::{Action, WhiskerTree};
use phi::sim::queue::DisciplineSpec;
use phi::sim::time::Dur;
use phi::tcp::report::{FlowReport, RunMetrics};
use phi::tcp::CubicParams;
use phi::workload::OnOffConfig;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn experiment_spec_roundtrips() {
    let mut spec = ExperimentSpec::new(8, OnOffConfig::fig2(), Dur::from_secs(60), 42);
    spec.queue = DisciplineSpec::Red;
    spec.dupack_threshold = 5;
    let back = roundtrip(&spec);
    assert_eq!(back.dumbbell.pairs, 8);
    assert_eq!(back.duration, Dur::from_secs(60));
    assert_eq!(back.queue, DisciplineSpec::Red);
    assert_eq!(back.dupack_threshold, 5);
    assert_eq!(back.workload, OnOffConfig::fig2());
}

/// The HA section is additive: a spec serialized before the field
/// existed (no `"ha"` key) must still deserialize — to `None`, the
/// classic single-store plane — so stored experiment configs and
/// EXPERIMENTS provenance stay readable forever.
#[test]
fn pre_ha_spec_json_deserializes_to_no_ha_plane() {
    let spec = ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7);
    let mut json = serde_json::to_string(&spec).expect("serialize");
    assert!(
        json.contains("\"ha\""),
        "field should serialize when present"
    );
    // Strip the field the way an old writer simply wouldn't have had it.
    json = json.replace(",\"ha\":null", "");
    assert!(
        !json.contains("\"ha\""),
        "test must actually remove the key"
    );
    let back: ExperimentSpec = serde_json::from_str(&json).expect("old JSON must deserialize");
    assert_eq!(back.ha, None);
    assert_eq!(back.seed, 7);
}

/// A stored spec carrying `retired` — a `"key":value` pair for a field
/// `ExperimentSpec` no longer has — must still load, the key ignored, as
/// the same spec without it.
fn assert_retired_key_is_ignored(retired: &str) {
    let spec = ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7);
    let json = serde_json::to_string(&spec).expect("serialize");
    let key = retired.split(':').next().expect("a key");
    assert!(!json.contains(key), "the field is gone");
    let old = json.replacen(",\"budget\":", &format!(",{retired},\"budget\":"), 1);
    assert!(old.contains(retired), "test must insert the key");
    let back: ExperimentSpec = serde_json::from_str(&old).expect("old JSON must deserialize");
    assert_eq!(
        serde_json::to_string(&back).expect("serialize"),
        json,
        "a stored spec with the retired key equals the spec without it"
    );
}

/// Specs stored while the harness still had a `domains` option carry a
/// `"domains"` key.
#[test]
fn retired_domains_key_is_ignored_on_deserialize() {
    assert_retired_key_is_ignored("\"domains\":4");
}

/// Specs stored while the harness still had a flow-level engine carry a
/// `"fluid"` key: `null` from every run that used the packet engine, a
/// populated section from one that selected the solver.
#[test]
fn retired_fluid_key_is_ignored_on_deserialize() {
    assert_retired_key_is_ignored("\"fluid\":null");
    assert_retired_key_is_ignored(
        "\"fluid\":{\"params\":{\"init_window\":2.0,\"init_ssthresh\":65536.0,\"beta\":0.2,\
         \"c\":0.4,\"fast_convergence\":true,\"tcp_friendly\":true,\"pace\":false},\
         \"ref_loss\":0.0001,\"slow_start_model\":true,\"efficiency\":0.75}",
    );
}

/// The `budget` section is additive exactly like `ha`: it
/// round-trips when present (every cap, individually and combined), and a spec serialized before the field existed (no
/// `"budget"` key) still deserializes — to `None`, no cap armed and the
/// historical digests.
#[test]
fn budget_roundtrips_and_pre_budget_json_deserializes_to_unlimited() {
    use phi::sim::engine::RunBudget;

    for budget in [
        RunBudget::events(1_000_000),
        RunBudget::sim_time(Dur::from_secs(30)),
        RunBudget::wall_ms(5_000),
        RunBudget {
            max_events: Some(42),
            max_sim_time: Some(Dur::from_millis(750)),
            max_wall_ms: Some(100),
        },
    ] {
        assert_eq!(roundtrip(&budget), budget);
        let spec =
            ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7).with_budget(budget);
        let back = roundtrip(&spec);
        assert_eq!(back.budget, Some(budget));
    }

    let spec = ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7);
    let mut json = serde_json::to_string(&spec).expect("serialize");
    assert!(
        json.contains("\"budget\""),
        "field should serialize when present"
    );
    json = json.replace(",\"budget\":null", "");
    assert!(
        !json.contains("\"budget\""),
        "test must actually remove the key"
    );
    let back: ExperimentSpec = serde_json::from_str(&json).expect("old JSON must deserialize");
    assert_eq!(back.budget, None);
    assert_eq!(back.seed, 7);

    // And within the budget itself the caps are individually additive:
    // a budget JSON with only one cap named still deserializes.
    let partial: RunBudget = serde_json::from_str("{\"max_events\":9}").expect("partial budget");
    assert_eq!(partial.max_events, Some(9));
    assert_eq!(partial.max_sim_time, None);
    assert_eq!(partial.max_wall_ms, None);
}

#[test]
fn ha_spec_and_crash_plans_roundtrip() {
    for plan in [
        ServerCrashPlan::none(),
        ServerCrashPlan::crash_at(Dur::from_secs(5)),
        ServerCrashPlan::crash_restart(Dur::from_secs(5), Dur::from_secs(2)),
        ServerCrashPlan::flapping(
            Dur::from_secs(3),
            Dur::from_millis(500),
            Dur::from_secs(2),
            4,
            0.25,
        ),
    ] {
        assert_eq!(roundtrip(&plan), plan);
        let ha = HaSpec {
            plan,
            repl_lag: Dur::from_millis(75),
            failover_delay: Dur::from_millis(300),
        };
        assert_eq!(roundtrip(&ha), ha);

        // And through the full spec, where it rides as Option<HaSpec>.
        let mut spec = ExperimentSpec::new(2, OnOffConfig::fig2(), Dur::from_secs(10), 1);
        spec.ha = Some(ha.clone());
        let back = roundtrip(&spec);
        assert_eq!(back.ha, Some(ha));
    }
}

/// Specs stored while a run could shard its in-sim plane carry a
/// `"shards"` key inside the `ha` section: `null` from every run on the
/// one plane, a populated section from one that asked for several. Both
/// load as the same [`HaSpec`] — the one plane every run has now.
#[test]
fn retired_ha_shards_key_is_ignored_on_deserialize() {
    let ha = HaSpec {
        plan: ServerCrashPlan::crash_restart(Dur::from_secs(5), Dur::from_secs(2)),
        repl_lag: Dur::from_millis(50),
        failover_delay: Dur::from_secs(1),
    };
    let json = serde_json::to_string(&ha).expect("serialize");
    assert!(!json.contains("\"shards\""), "the key is retired");
    for retired in [
        "\"shards\":null",
        "\"shards\":{\"count\":4,\"crash_shard\":2}",
    ] {
        let old = format!("{},{retired}}}", json.strip_suffix('}').expect("object"));
        let back: HaSpec = serde_json::from_str(&old).expect("old JSON must deserialize");
        assert_eq!(back, ha);
    }
}

#[test]
fn cubic_params_and_policy_roundtrip() {
    let p = CubicParams::tuned(32.0, 64.0, 0.3);
    assert_eq!(roundtrip(&p), p);
    let table = PolicyTable::reference();
    let back = roundtrip(&table);
    assert_eq!(back, table);
}

#[test]
fn whisker_tree_ships_to_the_fleet() {
    // Train-side: build a non-trivial tree.
    let mut tree = WhiskerTree::initial();
    tree.split_along(0, 3);
    tree.split(0);
    tree.set_action(
        1,
        Action {
            window_multiple: 0.7,
            window_increment: -2.0,
            intersend_ms: 4.0,
        },
    );
    // Wire: JSON (a fleet rollout artifact).
    let back: WhiskerTree = roundtrip(&tree);
    assert_eq!(back, tree);
    // Behaviour preserved: same lookups everywhere.
    for p in [
        [0.1, 0.2, 0.3, 0.9],
        [0.9, 0.9, 0.9, 0.1],
        [0.5, 0.5, 0.5, 0.5],
    ] {
        assert_eq!(back.action_for(&p), tree.action_for(&p));
    }
}

#[test]
fn reports_and_metrics_roundtrip() {
    let report = FlowReport {
        flow: phi::sim::packet::FlowId(7),
        bytes: 123_456,
        segments: 86,
        start: phi::sim::time::Time::from_millis(10),
        end: phi::sim::time::Time::from_millis(510),
        min_rtt: Some(Dur::from_millis(150)),
        mean_rtt_ms: 163.5,
        rtt_samples: 42,
        retransmits: 3,
        timeouts: 1,
        recoveries: 2,
        aborted: true,
        idle_restarts: 4,
    };
    let back = roundtrip(&report);
    assert_eq!(back.bytes, report.bytes);
    assert_eq!(back.min_rtt, report.min_rtt);
    assert_eq!(back.duration(), report.duration());
    assert!(back.aborted);
    assert_eq!(back.idle_restarts, 4);

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
    let back = roundtrip(&metrics);
    assert_eq!(back.flows_completed, 55);
    assert_eq!(back.flows_aborted, 3);
    assert!((back.throughput_mbps - 2.5).abs() < 1e-12);
}

#[test]
fn store_config_and_flow_summary_roundtrip() {
    let cfg = StoreConfig {
        window_ns: 5_000_000_000,
        capacity_bps: Some(15e6),
        queue_alpha: 0.25,
    };
    let back = roundtrip(&cfg);
    assert_eq!(back.window_ns, cfg.window_ns);
    assert_eq!(back.capacity_bps, cfg.capacity_bps);

    let s = FlowSummary {
        bytes: 1,
        duration_ns: 2,
        mean_rtt_ms: 3.0,
        min_rtt_ms: 4.0,
        retransmits: 5,
        timeouts: 6,
    };
    assert_eq!(roundtrip(&s), s);
}

/// The datacenter backpressure sections ride the same additive contract
/// as `ha`/`budget`: `SwitchSpec` (with its nested
/// `EcnSpec`/`PfcSpec`) and `IncastConfig` round-trip when present, and
/// a spec serialized before the fields existed (no `"switch"` or
/// `"incast"` key) still deserializes — to `None`, the classic per-link
/// drop-tail islands and on/off workload with their historical digests.
#[test]
fn switch_and_incast_roundtrip_and_pre_datacenter_json_deserializes() {
    use phi::sim::switch::{EcnSpec, PfcSpec, SwitchSpec};
    use phi::workload::IncastConfig;

    // The nested specs themselves.
    let ecn = EcnSpec {
        min_bytes: 10_000,
        max_bytes: 50_000,
    };
    assert_eq!(roundtrip(&ecn), ecn);
    let pfc = PfcSpec {
        xoff_bytes: 30_000,
        xon_bytes: 12_000,
        watchdog: Dur::from_millis(50),
    };
    assert_eq!(roundtrip(&pfc), pfc);
    let switch = SwitchSpec::shared(256_000)
        .with_alpha(2.0)
        .with_ecn(EcnSpec::step(30_000))
        .with_pfc(pfc);
    assert_eq!(roundtrip(&switch), switch);

    // ECN/PFC are additive *within* SwitchSpec too: a bare shared-pool
    // switch JSON without those keys deserializes to a plain DT switch.
    let bare: SwitchSpec =
        serde_json::from_str("{\"pool_bytes\":1000,\"dt_alpha\":1.0}").expect("bare switch");
    assert_eq!(bare, SwitchSpec::shared(1_000));

    // Through the full spec.
    let incast = IncastConfig::fan_in(8).with_jitter(0.002);
    assert_eq!(roundtrip(&incast), incast);
    let spec = ExperimentSpec::new(8, OnOffConfig::fig2(), Dur::from_secs(10), 5)
        .with_switch(switch)
        .with_incast(incast);
    let back = roundtrip(&spec);
    assert_eq!(back.switch, Some(switch));
    assert_eq!(back.incast, Some(incast));

    // A pre-datacenter writer simply never had the keys.
    let spec = ExperimentSpec::new(4, OnOffConfig::fig2(), Dur::from_secs(30), 7);
    let mut json = serde_json::to_string(&spec).expect("serialize");
    for key in ["switch", "incast"] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "{key} should serialize when present"
        );
        json = json.replace(&format!(",\"{key}\":null"), "");
        assert!(
            !json.contains(&format!("\"{key}\"")),
            "test must actually remove the {key} key"
        );
    }
    let back: ExperimentSpec = serde_json::from_str(&json).expect("old JSON must deserialize");
    assert_eq!(back.switch, None);
    assert_eq!(back.incast, None);
    assert_eq!(back.seed, 7);
}
