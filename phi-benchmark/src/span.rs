//! Outside-in span tracing: the benchmark's own timing shims around every
//! public boundary of the program (agent callbacks, congestion control,
//! session hooks, queue disciplines, the packet tracer), aggregated in
//! memory and written out when the run ends.
//!
//! Spans nest: run → engine → agent callback → {cc, hook}, with queue
//! and tracer calls wherever the engine makes them. A span's *self* time
//! is its duration minus the part its children cover, minus the
//! calibrated cost of the timing itself. Everything the engine does that
//! no shim can see — including the forwarding work behind `Ctx::send`
//! when an agent calls it — stays in the enclosing span's self time;
//! spans inside the program are a later change.
//!
//! The simulator is single-threaded, so the state is a thread-local and
//! the shims carry no references.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use phi_predict::LogHistogram;

/// The layers a traced run's wall-clock is divided among (module names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `phi_sim::engine` (+ `sched`, `switch`, `topology`): the root span.
    Engine,
    /// `phi_sim::queue` disciplines.
    Queue,
    /// `phi_tcp::sender`.
    Sender,
    /// `phi_tcp::receiver`.
    Receiver,
    /// `phi_tcp::{cubic, dctcp}` behind `CongestionControl`.
    Cc,
    /// `phi_core::hooks` → `phi_core::context`.
    Hooks,
    /// `phi_sim::trace` consumers.
    Tracer,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Engine,
        Layer::Queue,
        Layer::Sender,
        Layer::Receiver,
        Layer::Cc,
        Layer::Hooks,
        Layer::Tracer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "sim.engine",
            Layer::Queue => "sim.queue",
            Layer::Sender => "tcp.sender",
            Layer::Receiver => "tcp.receiver",
            Layer::Cc => "tcp.cc",
            Layer::Hooks => "core.hooks",
            Layer::Tracer => "sim.trace",
        }
    }
}

/// The calls spans are recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Run,
    Start,
    OnPacket,
    OnTimer,
    Offer,
    Take,
    FlowStart,
    OnAck,
    OnLoss,
    OnRto,
    Lookup,
    Report,
    Record,
}

const CALLS: usize = 13;

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Run => "run",
            Call::Start => "start",
            Call::OnPacket => "on_packet",
            Call::OnTimer => "on_timer",
            Call::Offer => "offer",
            Call::Take => "take",
            Call::FlowStart => "on_flow_start",
            Call::OnAck => "on_ack",
            Call::OnLoss => "on_loss",
            Call::OnRto => "on_rto",
            Call::Lookup => "lookup",
            Call::Report => "report",
            Call::Record => "event",
        }
    }
}

/// Full span records kept per run (1-in-N sampled below this cap).
pub const MAX_RECORDS: usize = 100_000;

/// One fully recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span (the root's parent is itself, 0).
    pub parent: u64,
    pub layer: Layer,
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every span of one `(layer, call)`.
#[derive(Debug, Clone)]
pub struct Agg {
    pub layer: Layer,
    pub call: Call,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans (timing cost not
    /// yet removed — see [`Calibration::self_ns`]).
    pub raw_self_ns: u64,
    /// Direct child spans opened under spans of this kind.
    pub children: u64,
    pub hist: LogHistogram,
}

impl Agg {
    fn new(layer: Layer, call: Call) -> Agg {
        Agg {
            layer,
            call,
            count: 0,
            total_ns: 0,
            raw_self_ns: 0,
            children: 0,
            // 1 ns – 100 s at 5 % resolution.
            hist: LogHistogram::new(1.0, 1e11, 0.05),
        }
    }
}

struct State {
    epoch: Instant,
    aggs: Vec<Option<Agg>>,
    records: Vec<SpanRecord>,
    sample_every: u64,
}

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    /// The open span's id and what its children have covered so far.
    static CUR_ID: Cell<u64> = const { Cell::new(0) };
    static CUR_CHILD_NS: Cell<u64> = const { Cell::new(0) };
    static CUR_CHILDREN: Cell<u64> = const { Cell::new(0) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Start collecting on this thread. Every `sample_every`-th span (by a
/// deterministic counter) is also kept as a full record.
pub fn begin(sample_every: u64) {
    NEXT_ID.set(0);
    CUR_ID.set(0);
    CUR_CHILD_NS.set(0);
    CUR_CHILDREN.set(0);
    STATE.with_borrow_mut(|s| {
        *s = Some(State {
            epoch: Instant::now(),
            aggs: vec![None; Layer::ALL.len() * CALLS],
            records: Vec::new(),
            sample_every: sample_every.max(1),
        })
    });
}

/// What a traced run collected.
pub struct Collected {
    pub aggs: Vec<Agg>,
    pub records: Vec<SpanRecord>,
}

/// Stop collecting and hand back the aggregates and sampled records.
pub fn end() -> Collected {
    let state = STATE
        .with_borrow_mut(Option::take)
        .expect("span::end without span::begin");
    Collected {
        aggs: state.aggs.into_iter().flatten().collect(),
        records: state.records,
    }
}

/// Run `f` inside a span of `(layer, call)`.
#[inline]
pub fn span<R>(layer: Layer, call: Call, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.get();
    NEXT_ID.set(id + 1);
    let parent = CUR_ID.replace(id);
    let parent_child_ns = CUR_CHILD_NS.replace(0);
    let parent_children = CUR_CHILDREN.replace(0);

    let start = Instant::now();
    let out = f();
    let end = Instant::now();

    let dur = end.duration_since(start).as_nanos() as u64;
    let child_ns = CUR_CHILD_NS.replace(parent_child_ns + dur);
    let children = CUR_CHILDREN.replace(parent_children + 1);
    CUR_ID.set(parent);
    STATE.with_borrow_mut(|s| {
        let s = s.as_mut().expect("span outside span::begin/end");
        let agg = s.aggs[layer as usize * CALLS + call as usize]
            .get_or_insert_with(|| Agg::new(layer, call));
        agg.count += 1;
        agg.total_ns += dur;
        agg.raw_self_ns += dur.saturating_sub(child_ns);
        agg.children += children;
        agg.hist.record(dur as f64);
        if id.is_multiple_of(s.sample_every) && s.records.len() < MAX_RECORDS {
            s.records.push(SpanRecord {
                id,
                parent,
                layer,
                call,
                start_ns: start.duration_since(s.epoch).as_nanos() as u64,
                end_ns: end.duration_since(s.epoch).as_nanos() as u64,
            });
        }
    });
    out
}

/// What the timing itself costs on this machine, measured by running
/// empty spans back to back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// One `Instant::now()` call.
    pub timer_ns: f64,
    /// What an empty span records as its own duration.
    pub span_inner_ns: f64,
    /// What an empty span costs its parent in wall-clock.
    pub span_outer_ns: f64,
}

impl Calibration {
    pub fn measure() -> Calibration {
        const N: u32 = 200_000;
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now());
        }
        let timer_ns = t0.elapsed().as_nanos() as f64 / f64::from(N);

        // Best of a few rounds: the calibration wants the undisturbed
        // cost, and a descheduled round only ever reads high.
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            begin(u64::MAX);
            let t0 = Instant::now();
            span(Layer::Engine, Call::Run, || {
                for _ in 0..N {
                    span(Layer::Tracer, Call::Record, || std::hint::black_box(()));
                }
            });
            let outer = t0.elapsed().as_nanos() as f64 / f64::from(N);
            let c = end();
            let inner = c
                .aggs
                .iter()
                .find(|a| a.layer == Layer::Tracer)
                .map_or(0.0, |a| a.total_ns as f64 / a.count as f64);
            if outer < best.1 {
                best = (inner, outer);
            }
        }
        Calibration {
            timer_ns,
            span_inner_ns: best.0,
            span_outer_ns: best.1.max(best.0),
        }
    }

    /// Self time of an aggregate with the timing cost removed: each of
    /// its own spans recorded `span_inner_ns` of overhead, and each
    /// direct child cost it the rest of a span beyond what the child
    /// itself recorded.
    pub fn self_ns(&self, agg: &Agg) -> f64 {
        let own = agg.count as f64 * self.span_inner_ns;
        let kids = agg.children as f64 * (self.span_outer_ns - self.span_inner_ns);
        (agg.raw_self_ns as f64 - own - kids).max(0.0)
    }
}

/// Per-layer view of a collected trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

pub fn by_layer(aggs: &[Agg], cal: &Calibration) -> [LayerTime; 7] {
    let mut out = [LayerTime::default(); 7];
    for a in aggs {
        let l = &mut out[a.layer as usize];
        l.calls += a.count;
        l.total_ns += a.total_ns as f64;
        l.self_ns += cal.self_ns(a);
    }
    out
}

/// Each layer's share of the traced run's (timing-corrected) wall-clock;
/// sums to 1 whenever anything was recorded.
pub fn shares(layers: &[LayerTime; 7]) -> [f64; 7] {
    let total: f64 = layers.iter().map(|l| l.self_ns).sum();
    let mut out = [0.0; 7];
    if total > 0.0 {
        for (o, l) in out.iter_mut().zip(layers) {
            *o = l.self_ns / total;
        }
    }
    out
}

/// Render the aggregates and sampled span records as one JSON document.
/// `fingerprint` is a JSON object (see `fingerprint::fingerprint`).
pub fn to_json(
    workload: &str,
    run_id: u64,
    fingerprint: &str,
    cal: &Calibration,
    c: &Collected,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"run_id\":{run_id},\"fingerprint\":{fingerprint},\
         \"timer_ns\":{:.3},\
         \"span_inner_ns\":{:.3},\"span_outer_ns\":{:.3},\"aggregates\":[",
        cal.timer_ns, cal.span_inner_ns, cal.span_outer_ns
    );
    for (i, a) in c.aggs.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":\"{}.{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{:.0},\
             \"p50_ns\":{:.0},\"p99_ns\":{:.0}}}",
            if i == 0 { "" } else { "," },
            a.layer.name(),
            a.call.name(),
            a.count,
            a.total_ns,
            cal.self_ns(a),
            a.hist.quantile(0.5).unwrap_or(0.0),
            a.hist.quantile(0.99).unwrap_or(0.0),
        );
    }
    s.push_str("],\"spans\":[");
    for (i, r) in c.records.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"run\":{run_id}}}",
            if i == 0 { "" } else { "," },
            r.id,
            r.parent,
            r.layer.name(),
            r.call.name(),
            r.start_ns,
            r.end_ns,
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(());
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        begin(1);
        span(Layer::Engine, Call::Run, || {
            spin(200_000);
            span(Layer::Sender, Call::OnPacket, || {
                spin(300_000);
                span(Layer::Cc, Call::OnAck, || spin(400_000));
            });
            span(Layer::Queue, Call::Offer, || spin(100_000));
        });
        let c = end();
        let agg = |l: Layer| c.aggs.iter().find(|a| a.layer == l).expect("recorded");
        let (run, snd, cc, q) = (
            agg(Layer::Engine),
            agg(Layer::Sender),
            agg(Layer::Cc),
            agg(Layer::Queue),
        );
        // Totals nest; raw self times partition the root's duration.
        assert!(run.total_ns >= snd.total_ns + q.total_ns);
        assert!(snd.total_ns >= cc.total_ns);
        assert_eq!(snd.raw_self_ns, snd.total_ns - cc.total_ns);
        assert_eq!(run.raw_self_ns, run.total_ns - snd.total_ns - q.total_ns);
        assert_eq!(
            run.raw_self_ns + snd.raw_self_ns + cc.raw_self_ns + q.raw_self_ns,
            run.total_ns
        );
        assert_eq!((run.children, snd.children, cc.children), (2, 1, 0));
        assert!(cc.raw_self_ns >= 400_000 && snd.raw_self_ns >= 300_000);

        // Parent links follow the nesting; the root is its own parent.
        let rec = |l: Layer| c.records.iter().find(|r| r.layer == l).expect("sampled");
        assert_eq!(rec(Layer::Engine).parent, rec(Layer::Engine).id);
        assert_eq!(rec(Layer::Sender).parent, rec(Layer::Engine).id);
        assert_eq!(rec(Layer::Cc).parent, rec(Layer::Sender).id);
        assert_eq!(rec(Layer::Queue).parent, rec(Layer::Engine).id);
    }

    #[test]
    fn calibration_removes_timing_cost_and_shares_sum_to_one() {
        let cal = Calibration {
            timer_ns: 20.0,
            span_inner_ns: 25.0,
            span_outer_ns: 60.0,
        };
        let mut parent = Agg::new(Layer::Engine, Call::Run);
        parent.count = 1;
        parent.raw_self_ns = 10_000;
        parent.children = 100;
        let mut child = Agg::new(Layer::Queue, Call::Offer);
        child.count = 100;
        child.raw_self_ns = 4_000;
        // Parent: 10 000 − 1·25 − 100·35; child: 4 000 − 100·25.
        assert_eq!(cal.self_ns(&parent), 6_475.0);
        assert_eq!(cal.self_ns(&child), 1_500.0);
        // Over-correction clamps at zero instead of going negative.
        child.raw_self_ns = 1_000;
        assert_eq!(cal.self_ns(&child), 0.0);

        child.raw_self_ns = 4_000;
        let layers = by_layer(&[parent, child], &cal);
        let sh = shares(&layers);
        assert!((sh.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((sh[Layer::Queue as usize] - 1_500.0 / 7_975.0).abs() < 1e-12);
        assert_eq!(shares(&[LayerTime::default(); 7]), [0.0; 7]);
    }

    #[test]
    fn sampling_is_a_deterministic_counter() {
        begin(4);
        span(Layer::Engine, Call::Run, || {
            for _ in 0..10 {
                span(Layer::Queue, Call::Take, || ());
            }
        });
        let c = end();
        // Ids 0 (root), 4 and 8 of the 11 spans.
        let ids: Vec<u64> = c.records.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&0) && ids.contains(&4) && ids.contains(&8));
        let json = to_json("w", 7, "{}", &Calibration::measure(), &c);
        assert!(json.contains("\"name\":\"sim.queue.take\",\"count\":10"));
        assert!(json.contains("\"run\":7"));
    }
}
