//! Timing shims: one wrapper per public trait of the program, each
//! forwarding to the real implementation inside a [`span`].
//!
//! Only calls that do work are timed. Plain accessors the engine or the
//! sender polls per packet (`window`, `intersend`, `live_util`, queue
//! lengths) are forwarded untimed: a span would cost more than the field
//! read it measures.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use phi_sim::engine::{Agent, Ctx};
use phi_sim::packet::Packet;
use phi_sim::queue::{Capacity, Discipline, DropTail, Verdict};
use phi_sim::time::{Dur, Time};
use phi_sim::trace::{TraceEvent, TraceOp, Tracer};
use phi_tcp::hook::{ContextSnapshot, SessionHook};
use phi_tcp::report::FlowReport;
use phi_tcp::{AckEvent, CongestionControl, LossEvent};

use crate::span::{span, Call, Layer};

/// An agent whose callbacks are spans of `layer`.
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    layer: Layer,
}

impl TimedAgent {
    pub fn new(layer: Layer, inner: impl Agent) -> Box<TimedAgent> {
        Box::new(TimedAgent {
            inner: Box::new(inner),
            layer,
        })
    }
}

impl Agent for TimedAgent {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        span(self.layer, Call::Start, || self.inner.start(ctx))
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        span(self.layer, Call::OnPacket, || {
            self.inner.on_packet(pkt, ctx)
        })
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        span(self.layer, Call::OnTimer, || {
            self.inner.on_timer(token, ctx)
        })
    }
    // Downcasts see through the shim, so `Simulator::agent_as::<TcpSender>`
    // keeps working on a traced run.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A congestion controller whose event handlers are `tcp.cc` spans.
pub struct TimedCc(pub Box<dyn CongestionControl>);

impl CongestionControl for TimedCc {
    fn on_flow_start(&mut self, now: Time) {
        span(Layer::Cc, Call::FlowStart, || self.0.on_flow_start(now))
    }
    fn window(&self) -> f64 {
        self.0.window()
    }
    fn intersend(&self) -> Option<Dur> {
        self.0.intersend()
    }
    fn on_ack(&mut self, ev: &AckEvent) {
        span(Layer::Cc, Call::OnAck, || self.0.on_ack(ev))
    }
    fn on_loss(&mut self, ev: &LossEvent) {
        span(Layer::Cc, Call::OnLoss, || self.0.on_loss(ev))
    }
    fn on_rto(&mut self, now: Time) {
        span(Layer::Cc, Call::OnRto, || self.0.on_rto(now))
    }
    fn ecn_capable(&self) -> bool {
        self.0.ecn_capable()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A session hook whose lookup and report are `core.hooks` spans.
pub struct TimedHook(pub Box<dyn SessionHook>);

impl SessionHook for TimedHook {
    fn lookup(&mut self, now: Time, ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        span(Layer::Hooks, Call::Lookup, || self.0.lookup(now, ctx))
    }
    fn report(&mut self, report: &FlowReport, ctx: &mut Ctx<'_>) {
        span(Layer::Hooks, Call::Report, || self.0.report(report, ctx))
    }
    fn live_util(&self, ctx: &Ctx<'_>) -> Option<f64> {
        self.0.live_util(ctx)
    }
}

/// Drop-tail behind the `Discipline` trait with `sim.queue` spans around
/// admission and service.
#[derive(Debug)]
pub struct TimedDiscipline(DropTail);

impl TimedDiscipline {
    pub fn drop_tail(capacity: Capacity) -> TimedDiscipline {
        TimedDiscipline(DropTail::new(capacity))
    }
}

impl Discipline for TimedDiscipline {
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict {
        span(Layer::Queue, Call::Offer, || self.0.offer(pkt, now))
    }
    fn take(&mut self) -> Option<(Packet, Time)> {
        span(Layer::Queue, Call::Take, || self.0.take())
    }
    fn len_packets(&self) -> usize {
        self.0.len_packets()
    }
    fn len_bytes(&self) -> u64 {
        self.0.len_bytes()
    }
    fn capacity(&self) -> Capacity {
        self.0.capacity()
    }
}

/// What the traced run's packet tracer saw, by operation.
#[derive(Debug, Default)]
pub struct TraceCounts {
    pub delivered: AtomicU64,
    pub dropped: AtomicU64,
}

/// A counting packet tracer whose callback is a `sim.trace` span. The
/// counts are cross-checked against the packet census after the run.
pub struct TimedTracer(pub Arc<TraceCounts>);

impl Tracer for TimedTracer {
    fn event(&mut self, ev: &TraceEvent) {
        span(Layer::Tracer, Call::Record, || {
            match ev.op {
                TraceOp::Deliver => self.0.delivered.fetch_add(1, Ordering::Relaxed),
                TraceOp::Drop => self.0.dropped.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
        })
    }
}
