//! ns-2-style packet tracing: watch the dumbbell breathe.
//!
//! Installs a [`phi::sim::trace::TraceWriter`] on a tiny two-sender
//! dumbbell and prints the head of the trace — every `+` enqueue, `d`
//! drop, `-` transmission, and `r` delivery, exactly the format
//! generations of networking students squinted at.
//!
//! Run with: `cargo run --release --example packet_trace`

use phi::core::{provision_cubic, run_experiment, ExperimentSpec};
use phi::sim::engine::Simulator;
use phi::sim::time::{Dur, Time};
use phi::sim::topology::{dumbbell, DumbbellSpec};
use phi::sim::trace::{SharedTraceCollector, TraceOp, TraceWriter, Tracer};
use phi::tcp::hook::NoHook;
use phi::tcp::receiver::TcpReceiver;
use phi::tcp::sender::{SenderConfig, TcpSender};
use phi::tcp::{Cubic, CubicParams};
use phi::workload::{OnOffConfig, OnOffSource, SeedRng};

fn main() {
    // A small, congested dumbbell so the trace shows drops quickly.
    let mut spec = DumbbellSpec::paper(2);
    spec.bottleneck_bps = 2_000_000;
    spec.buffer_bdp_multiple = 1.0;
    let net = dumbbell(&spec);
    let mut sim = Simulator::new(net.topology.clone());

    for i in 0..2 {
        let mut cfg = SenderConfig::new(net.receivers[i], 80, 10);
        cfg.flow_id_base = (i as u64) << 32;
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 300_000.0,
                mean_off_secs: 0.2,
                deterministic: false,
            },
            SeedRng::new(1).fork_indexed("sender", i as u64),
        );
        sim.add_agent(
            net.senders[i],
            10,
            Box::new(TcpSender::new(
                cfg,
                source,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                Box::new(NoHook),
            )),
        );
        sim.add_agent(net.receivers[i], 80, Box::new(TcpReceiver::new()));
    }

    // Render the first two simulated seconds as trace lines...
    struct Both {
        writer: TraceWriter,
        shared: Box<dyn Tracer>,
    }
    impl Tracer for Both {
        fn event(&mut self, ev: &phi::sim::trace::TraceEvent) {
            self.writer.event(ev);
            self.shared.event(ev);
        }
    }
    let (shared, events) = SharedTraceCollector::new();
    sim.set_tracer(Box::new(Both {
        writer: TraceWriter::new(),
        shared,
    }));
    sim.run_until(Time::from_secs(2));

    let events = events.borrow();
    let head: Vec<String> = {
        // Re-render the head from the shared buffer (the writer half lives
        // inside the simulator; this avoids pulling it back out).
        let mut w = TraceWriter::new();
        for ev in events.iter().take(36) {
            w.event(ev);
        }
        w.as_str().lines().map(String::from).collect()
    };
    println!(
        "first {} trace lines of a congested 2 Mbit/s dumbbell:\n",
        head.len()
    );
    for line in &head {
        println!("  {line}");
    }
    let count = |op: TraceOp| events.iter().filter(|e| e.op == op).count();
    println!(
        "\n2 simulated seconds: {} enqueues, {} transmissions, {} deliveries, {} drops",
        count(TraceOp::Enqueue),
        count(TraceOp::Transmit),
        count(TraceOp::Deliver),
        count(TraceOp::Drop),
    );

    // ...and show the same world at experiment altitude for contrast.
    let espec = {
        let mut s = ExperimentSpec::new(2, OnOffConfig::fig2(), Dur::from_secs(10), 1);
        s.dumbbell = spec;
        s
    };
    let r = run_experiment(&espec, provision_cubic(CubicParams::default()));
    println!(
        "\nsame network, harness view over 10 s: {:.2} Mbit/s per flow, {:.1} ms queueing, {:.2}% loss",
        r.metrics.throughput_mbps,
        r.metrics.queueing_delay_ms,
        r.metrics.loss_rate * 100.0
    );
}
