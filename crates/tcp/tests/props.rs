//! Property-based invariants of the transport: arbitrary transfers over
//! arbitrary (sane) links must complete exactly, and congestion windows
//! must respect their invariants under arbitrary event sequences.

use proptest::prelude::*;

use phi_sim::engine::Simulator;
use phi_sim::faults::{ImpairmentPlan, LossModel};
use phi_sim::queue::Capacity;
use phi_sim::time::{Dur, Time};
use phi_sim::topology::TopologyBuilder;
use phi_tcp::cc::{AckEvent, CongestionControl, LossEvent};
use phi_tcp::cubic::{Cubic, CubicParams};
use phi_tcp::hook::NoHook;
use phi_tcp::newreno::{NewReno, NewRenoParams};
use phi_tcp::receiver::TcpReceiver;
use phi_tcp::sender::{SenderConfig, TcpSender};
use phi_workload::{OnOffConfig, OnOffSource, SeedRng};

/// Half the cases a clean path; the other half random loss (at most 5 %),
/// duplication and bounded reordering, installed on both directions so
/// that ACKs, too, go missing, arrive twice and arrive out of order.
fn impairments() -> impl Strategy<Value = ImpairmentPlan> {
    prop_oneof![
        Just(ImpairmentPlan::new()),
        (0.0..0.05f64, 0.0..0.05f64, 0.0..0.2f64, 1u64..20).prop_map(
            |(loss, duplicate, reorder, reorder_ms)| ImpairmentPlan::new()
                .loss(LossModel::Bernoulli { p: loss })
                .duplicate(duplicate)
                .reorder(reorder, Dur::from_millis(reorder_ms))
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any transfer over any sane single link completes with the right
    /// byte count, regardless of how lossy the queue is or how the path
    /// loses, repeats and reorders data and ACKs.
    #[test]
    fn transfers_always_complete_exactly(
        bytes in 1_000u64..400_000,
        rate_mbps in 1u64..50,
        delay_ms in 1u64..60,
        queue_pkts in 4usize..64,
        seed in 0u64..1000,
        plan in impairments(),
    ) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        let (fwd, rev) = b.add_duplex(
            a,
            z,
            rate_mbps * 1_000_000,
            Dur::from_millis(delay_ms),
            Capacity::Packets(queue_pkts),
        );
        let mut sim = Simulator::new(b.build());
        for link in [fwd, rev] {
            sim.install_impairments(link, plan.clone(), &SeedRng::new(seed));
        }
        let mut cfg = SenderConfig::new(z, 80, 10);
        cfg.max_flows = Some(1);
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: bytes as f64,
                mean_off_secs: 0.0,
                deterministic: true,
            },
            SeedRng::new(seed),
        );
        let s = sim.add_agent(
            a,
            10,
            Box::new(TcpSender::new(
                cfg,
                source,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                Box::new(NoHook),
            )),
        );
        let r = sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
        sim.run_until(Time::from_secs(600));

        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        prop_assert!(sender.is_done(), "transfer did not complete");
        let report = &sender.reports()[0];
        prop_assert_eq!(report.bytes, bytes);
        prop_assert!(report.end > report.start);

        // The receiver consumed every segment exactly in order.
        let recv = sim.agent_as::<TcpReceiver>(r).unwrap();
        let flow = report.flow;
        prop_assert!(recv.finished(flow));
        prop_assert_eq!(recv.progress(flow), report.segments);
    }

    /// Cubic's window never drops below one segment and ssthresh never
    /// below two, under arbitrary interleavings of acks/losses/timeouts.
    #[test]
    fn cubic_invariants_under_arbitrary_events(
        events in proptest::collection::vec(0u8..3, 1..200),
        iw in 1u32..64,
        ssthresh in 2u32..1024,
        beta_tenths in 1u32..10,
    ) {
        let mut cc = Cubic::new(CubicParams::tuned(
            f64::from(iw),
            f64::from(ssthresh),
            f64::from(beta_tenths) / 10.0,
        ));
        cc.on_flow_start(Time::ZERO);
        let mut now_ms = 0u64;
        for e in events {
            now_ms += 37;
            match e {
                0 => cc.on_ack(&AckEvent {
                    now: Time::from_millis(now_ms),
                    rtt: Some(Dur::from_millis(50)),
                    min_rtt: Some(Dur::from_millis(40)),
                    newly_acked: 3,
                    sent_at: Time::from_millis(now_ms.saturating_sub(50)),
                    shared_util: None,
                    ece: false,
                }),
                1 => cc.on_loss(&LossEvent {
                    now: Time::from_millis(now_ms),
                }),
                _ => cc.on_rto(Time::from_millis(now_ms)),
            }
            prop_assert!(cc.window() >= 1.0, "window {}", cc.window());
            prop_assert!(cc.window().is_finite());
            prop_assert!(cc.ssthresh() >= 2.0);
        }
    }

    /// NewReno: same invariants, plus decrease monotonicity on loss.
    #[test]
    fn newreno_invariants_under_arbitrary_events(
        events in proptest::collection::vec(0u8..3, 1..200),
        increase in 1u32..8,
    ) {
        let mut cc = NewReno::new(NewRenoParams {
            increase: f64::from(increase),
            ..NewRenoParams::default()
        });
        cc.on_flow_start(Time::ZERO);
        for (i, e) in events.iter().enumerate() {
            let now = Time::from_millis(i as u64 * 29);
            match e {
                0 => cc.on_ack(&AckEvent {
                    now,
                    rtt: Some(Dur::from_millis(80)),
                    min_rtt: Some(Dur::from_millis(80)),
                    newly_acked: 2,
                    sent_at: Time::ZERO,
                    shared_util: Some(0.5),
                    ece: false,
                }),
                1 => {
                    let before = cc.window();
                    cc.on_loss(&LossEvent { now });
                    // ssthresh is floored at 2 segments, so a window of 1
                    // may legitimately rise to the floor.
                    prop_assert!(cc.window() <= before.max(2.0));
                }
                _ => {
                    cc.on_rto(now);
                    prop_assert_eq!(cc.window(), 1.0);
                }
            }
            prop_assert!(cc.window() >= 1.0 && cc.window().is_finite());
        }
    }
}
