//! The sending endpoint: connection lifecycle, loss recovery, and the
//! on/off workload loop.
//!
//! A [`TcpSender`] drives a sequence of connections (the paper's on/off
//! model: each on-period is a *fresh* connection with reset congestion
//! state). For each connection it:
//!
//! 1. asks its [`SessionHook`] for the shared congestion context (a Phi
//!    lookup, or nothing for unmodified senders),
//! 2. builds a congestion controller from its factory — which is where
//!    Phi-tuned parameters enter,
//! 3. transfers the planned bytes with SACK-based loss recovery
//!    (RFC 6675-style scoreboard and pipe accounting, which is what the
//!    paper's ns-2 Linux-TCP senders run): fast retransmit after
//!    `dupack_threshold` duplicate ACKs, hole-by-hole retransmission
//!    bounded by the congestion window, and a Jacobson/Karels RTO with
//!    exponential backoff and go-back-N restart as the last resort,
//! 4. reports the completed flow back through the hook (a Phi report).
//!
//! Pacing: if the controller supplies [`CongestionControl::intersend`],
//! sends are additionally spaced by that gap (Remy's rate dimension).

use std::any::Any;
use std::collections::VecDeque;

use phi_sim::engine::{packet_to, Agent, Ctx, TimerHandle};
use phi_sim::packet::{wire, Flags, FlowId, NodeId, Packet};
use phi_sim::time::{Dur, Time};
use phi_workload::FlowSource;

use crate::cc::{AckEvent, CongestionControl, LossEvent};
use crate::hook::{ContextSnapshot, SessionHook};
use crate::report::FlowReport;

/// Builds a congestion controller for a new connection, optionally using
/// the shared context returned by the session hook's lookup.
pub type CcFactory = Box<dyn FnMut(Option<&ContextSnapshot>) -> Box<dyn CongestionControl>>;

/// Static configuration of one sender.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Peer (receiver) node.
    pub dst: NodeId,
    /// Peer port.
    pub dst_port: u16,
    /// Local port.
    pub src_port: u16,
    /// Duplicate ACKs that trigger fast retransmit (classically 3;
    /// §3.2's informed adaptation tunes this when reordering is common).
    pub dupack_threshold: u32,
    /// Upper bound on the retransmission timeout.
    pub max_rto: Dur,
    /// Abort the flow after this many *consecutive* RTO expirations with
    /// no forward progress (`None` = retry forever, classic behavior).
    /// With backoff capped at `max_rto`, a permanently blackholed path
    /// otherwise spins silently; the cap makes the flow die loudly with
    /// an `aborted` verdict in its [`FlowReport`].
    pub max_consecutive_rtos: Option<u32>,
    /// Stop after this many completed flows (`None` = run forever).
    pub max_flows: Option<u64>,
    /// Base for flow ids; successive flows get base, base+1, …
    pub flow_id_base: u64,
}

impl SenderConfig {
    /// Sensible defaults for a sender talking to `dst`/`dst_port`.
    pub fn new(dst: NodeId, dst_port: u16, src_port: u16) -> Self {
        SenderConfig {
            dst,
            dst_port,
            src_port,
            dupack_threshold: 3,
            max_rto: Dur::from_secs(60),
            max_consecutive_rtos: None,
            max_flows: None,
            flow_id_base: 0,
        }
    }
}

/// Lower bound on the retransmission timeout (Linux's `TCP_RTO_MIN`).
const MIN_RTO: Dur = Dur::from_millis(200);

// Timer tokens. Staleness is handled by the engine: timers are cancelled
// (or superseded) through their [`TimerHandle`] and skipped at pop time,
// so tokens no longer need to carry generation counters.
const TIMER_START: u64 = 0;
const TIMER_RTO: u64 = 1;
const TIMER_PACE: u64 = 2;

/// What the sender knows of one segment at or above the cumulative ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Neither SACKed nor retransmitted this recovery episode.
    Out,
    /// The receiver holds it.
    Sacked,
    /// Retransmitted this episode when the send frontier (`ever_sent`)
    /// stood at the value, and not SACKed since.
    Retx(u64),
}

/// The SACK scoreboard and its recovery episode: segment `una + i` is
/// `marks[i]`, and every segment past the end is `Out`. The ring reaches
/// only as far as the highest SACKed or retransmitted segment, so it is
/// empty outside loss recovery, and running counts spare the pipe
/// estimate and the SACK-count loss signal a scan.
#[derive(Default)]
struct Scoreboard {
    /// Cumulative acknowledgment (next expected by the receiver).
    una: u64,
    marks: VecDeque<Mark>,
    /// `Sacked` marks.
    sacked: u64,
    /// `Retx` marks: retransmissions in flight.
    retx: u64,
    /// The highest SACKed segment, while there is one.
    high: Option<u64>,
    /// Recovery point: in recovery until the cumulative ack exceeds it.
    recovery: Option<u64>,
}

impl Scoreboard {
    fn mark(&self, seq: u64) -> Mark {
        let i = (seq - self.una) as usize;
        self.marks.get(i).copied().unwrap_or(Mark::Out)
    }

    /// `seq`'s mark, growing the ring to hold it.
    fn slot(&mut self, seq: u64) -> &mut Mark {
        let i = (seq - self.una) as usize;
        if i >= self.marks.len() {
            self.marks.resize(i + 1, Mark::Out);
        }
        &mut self.marks[i]
    }

    /// The receiver holds segments `lo..hi`.
    fn sack(&mut self, lo: u64, hi: u64) {
        for seq in lo..hi {
            match std::mem::replace(self.slot(seq), Mark::Sacked) {
                Mark::Sacked => continue,
                // A retransmission that arrived no longer occupies the pipe.
                Mark::Retx(_) => self.retx -= 1,
                Mark::Out => {}
            }
            self.sacked += 1;
            self.high = self.high.max(Some(seq));
        }
    }

    /// Hole `seq` goes out again while the send frontier is `frontier`.
    fn retransmit(&mut self, seq: u64, frontier: u64) {
        let was = std::mem::replace(self.slot(seq), Mark::Retx(frontier));
        debug_assert_eq!(was, Mark::Out, "retransmitting {seq}");
        self.retx += 1;
    }

    /// In recovery, the lowest "known lost" hole not yet retransmitted
    /// this episode: `Out`, and below the highest SACKed segment.
    fn next_hole(&self) -> Option<u64> {
        let high = self.high.filter(|_| self.recovery.is_some())?;
        (self.una..high).find(|&seq| self.mark(seq) == Mark::Out)
    }

    /// Lost-retransmission detection (the RFC 6675 / RACK idea): if the
    /// receiver SACKs a segment first sent *after* a hole was
    /// retransmitted while the hole is still open, that retransmission
    /// was itself dropped. Re-open the hole so recovery retransmits it
    /// again instead of stalling until the RTO — with several drop-tail
    /// bottlenecks on the path, lost retransmissions are common and every
    /// one would otherwise cost a full timeout plus a window collapse.
    /// Scans only while a retransmission is in flight.
    fn reopen_lost(&mut self) {
        let Some(high) = self.high.filter(|_| self.retx > 0) else {
            return;
        };
        for m in &mut self.marks {
            if matches!(*m, Mark::Retx(frontier) if frontier <= high) {
                *m = Mark::Out;
                self.retx -= 1;
            }
        }
    }

    /// The cumulative ack moved up to `ack`: forget the marks below it,
    /// and end the episode once past the recovery point.
    fn advance(&mut self, ack: u64) {
        let n = ((ack - self.una) as usize).min(self.marks.len());
        for m in self.marks.drain(..n) {
            self.sacked -= u64::from(m == Mark::Sacked);
            self.retx -= u64::from(matches!(m, Mark::Retx(_)));
        }
        self.una = ack;
        self.high = self.high.filter(|&h| h >= ack);
        if self.recovery.is_some_and(|point| ack > point) {
            self.end_episode();
        }
    }

    /// The recovery episode ended (the cumulative ack passed the recovery
    /// point, or the RTO fired): forget its retransmissions. SACKs stay,
    /// since the receiver still holds those segments.
    fn end_episode(&mut self) {
        for m in &mut self.marks {
            if let Mark::Retx(_) = m {
                *m = Mark::Out;
            }
        }
        self.retx = 0;
        self.recovery = None;
    }
}

/// State of the in-progress connection.
struct Conn {
    flow: FlowId,
    cc: Box<dyn CongestionControl>,
    /// Total segments to transfer.
    total: u64,
    /// Application bytes to transfer.
    bytes: u64,
    /// Payload bytes of the final segment.
    last_payload: u32,
    /// Next new segment to send.
    next_seq: u64,
    /// One past the highest segment currently counted in the pipe.
    /// Reset to the cumulative ack on timeout (go-back-N declares
    /// everything beyond it lost).
    pipe_end: u64,
    /// One past the highest segment *ever* transmitted (monotone; used to
    /// mark re-sends with the RETX flag for Karn's rule).
    ever_sent: u64,
    /// The cumulative ack, what is known of each segment above it, and
    /// the recovery episode.
    sb: Scoreboard,
    dup_acks: u32,
    // RTT estimation (Jacobson/Karels).
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    min_rtt: Option<Dur>,
    rtt_sum_ms: f64,
    rtt_samples: u64,
    // Accounting.
    start: Time,
    retransmits: u64,
    timeouts: u64,
    recoveries: u64,
    /// RTO expirations since the last cumulative advance; compared
    /// against `SenderConfig::max_consecutive_rtos` for the abort verdict
    /// and reset to zero whenever the flow makes forward progress.
    consecutive_rtos: u32,
    /// Recoveries from an RTO-backoff spiral: the path healed and an ACK
    /// advanced the flow after >= 2 consecutive timeouts.
    idle_restarts: u64,
    // Pacing.
    pace_next: Time,
    pace_handle: Option<TimerHandle>,
}

impl Conn {
    fn outstanding(&self) -> bool {
        self.pipe_end > self.sb.una || self.next_seq < self.total
    }

    /// RFC 6675-style pipe estimate: segments believed in flight.
    ///
    /// Outstanding segments, minus those the receiver selectively holds,
    /// minus the holes "known lost" (below the highest SACKed segment) —
    /// that is, what was sent above the highest SACKed segment — plus
    /// retransmissions currently in flight. Without SACK information it
    /// degrades to the classic duplicate-ACK inflation.
    fn pipe(&self) -> u64 {
        let sb = &self.sb;
        let departed = sb.high.map_or(sb.una + u64::from(self.dup_acks), |h| h + 1);
        self.pipe_end.saturating_sub(departed) + sb.retx
    }

    /// Debug-build invariants, checked after every ACK and every RTO:
    /// SACKed segments lie in `[una, ever_sent)`, the retransmissions
    /// counted in flight are exactly this episode's retransmitted holes
    /// that are not SACKed, and both send pointers lie between the
    /// cumulative ack and the send frontier. The SACK counts match too.
    fn check(&self) {
        let (sb, sent) = (&self.sb, self.ever_sent);
        let count = |f: fn(&Mark) -> bool| sb.marks.iter().filter(|m| f(m)).count() as u64;
        let high = sb.marks.iter().rposition(|m| *m == Mark::Sacked);
        let high = high.map(|i| sb.una + i as u64);
        debug_assert!((sb.una..=sent).contains(&self.next_seq), "next_seq");
        debug_assert!((sb.una..=sent).contains(&self.pipe_end), "pipe_end");
        debug_assert!(high.is_none_or(|h| h < sent), "SACKed past {sent}");
        debug_assert_eq!((sb.sacked, sb.high), (count(|m| *m == Mark::Sacked), high));
        debug_assert_eq!(sb.retx, count(|m| matches!(m, Mark::Retx(_))), "in flight");
    }

    fn take_rtt_sample(&mut self, sample: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar = Dur::from_nanos(
                    (3 * self.rttvar.as_nanos() / 4).saturating_add(err.as_nanos() / 4),
                );
                self.srtt = Some(Dur::from_nanos(
                    (7 * srtt.as_nanos() / 8).saturating_add(sample.as_nanos() / 8),
                ));
            }
        }
        self.min_rtt = Some(match self.min_rtt {
            None => sample,
            Some(m) => m.min(sample),
        });
        self.rtt_sum_ms += sample.as_millis_f64();
        self.rtt_samples += 1;
    }

    fn computed_rto(&self, max_rto: Dur) -> Dur {
        match self.srtt {
            None => Dur::from_secs(1),
            Some(srtt) => (srtt + (self.rttvar * 4).max(Dur::from_millis(1)))
                .max(MIN_RTO)
                .min(max_rto),
        }
    }

    /// This connection's report as of `end`, covering what the cumulative
    /// ack covers: the planned bytes and segments once the flow is fully
    /// acknowledged, whole segments delivered so far before that.
    fn report(&self, end: Time, aborted: bool) -> FlowReport {
        FlowReport {
            flow: self.flow,
            // The last segment may be short: cap at the planned bytes.
            bytes: (self.sb.una * u64::from(wire::MSS)).min(self.bytes),
            segments: self.sb.una,
            start: self.start,
            end,
            min_rtt: self.min_rtt,
            mean_rtt_ms: if self.rtt_samples > 0 {
                self.rtt_sum_ms / self.rtt_samples as f64
            } else {
                0.0
            },
            rtt_samples: self.rtt_samples,
            retransmits: self.retransmits,
            timeouts: self.timeouts,
            recoveries: self.recoveries,
            aborted,
            idle_restarts: self.idle_restarts,
        }
    }

    fn segment(&self, cfg: &SenderConfig, seq: u64, retx: bool) -> Packet {
        let payload = if seq + 1 == self.total {
            self.last_payload
        } else {
            wire::MSS
        };
        let mut pkt = packet_to(
            cfg.dst,
            cfg.dst_port,
            cfg.src_port,
            self.flow,
            payload + wire::HEADER_BYTES,
        );
        pkt.seq = seq;
        let mut flags = Flags::empty();
        if seq + 1 == self.total {
            flags = flags.union(Flags::FIN);
        }
        if retx {
            flags = flags.union(Flags::RETX);
        }
        // ECN negotiation is a sender-side property here: an ECN-capable
        // controller (DCTCP) marks its data ECT, so switches mark instead
        // of dropping where configured.
        if self.cc.ecn_capable() {
            flags = flags.union(Flags::ECT);
        }
        pkt.flags = flags;
        pkt
    }

    /// Retransmit a known-lost hole: marks the scoreboard and sends
    /// immediately (bypasses pacing; counted in the pipe).
    fn retransmit_hole(&mut self, cfg: &SenderConfig, seq: u64, ctx: &mut Ctx<'_>) {
        self.retransmits += 1;
        self.sb.retransmit(seq, self.ever_sent);
        ctx.send(self.segment(cfg, seq, true));
    }
}

/// A TCP-like sender agent driving an on/off connection sequence.
pub struct TcpSender {
    cfg: SenderConfig,
    source: FlowSource,
    cc_factory: CcFactory,
    hook: Box<dyn SessionHook>,
    conn: Option<Conn>,
    /// Completed-flow reports, in completion order.
    reports: Vec<FlowReport>,
    flows_started: u64,
    /// Bytes planned for the flow whose start timer is pending.
    pending_bytes: u64,
    /// The single armed RTO timer (handle and its fire time), if any.
    ///
    /// Classic senders push a fresh RTO timer on every ACK, leaving a
    /// trail of dead events in the engine queue. Instead we keep at most
    /// one armed timer plus the *logical* deadline below: extending the
    /// deadline is a field write, and when the armed timer fires early
    /// (`now < rto_deadline`) it simply re-arms at the stored deadline —
    /// roughly one queue event per RTO period instead of one per ACK,
    /// with the real timeout firing at exactly the same instant.
    rto_armed: Option<(TimerHandle, Time)>,
    /// When the retransmission timeout is actually due.
    rto_deadline: Time,
    done: bool,
}

impl TcpSender {
    /// A sender with the given workload source (anything convertible to a
    /// [`FlowSource`], e.g. an on/off or incast generator), controller
    /// factory, and session hook.
    pub fn new(
        cfg: SenderConfig,
        source: impl Into<FlowSource>,
        cc_factory: CcFactory,
        hook: Box<dyn SessionHook>,
    ) -> Self {
        TcpSender {
            cfg,
            source: source.into(),
            cc_factory,
            hook,
            conn: None,
            reports: Vec::new(),
            flows_started: 0,
            pending_bytes: 0,
            rto_armed: None,
            rto_deadline: Time::ZERO,
            done: false,
        }
    }

    /// Completed-flow reports so far.
    pub fn reports(&self) -> &[FlowReport] {
        &self.reports
    }

    /// True once `max_flows` have completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// A synthesized report for the *in-progress* connection, if any,
    /// covering what it has delivered up to `now`. Long-running flows
    /// (Figure 2c) never complete, yet their throughput during on-time is
    /// exactly what the paper measures — this is how the harness sees it.
    pub fn partial_report(&self, now: Time) -> Option<FlowReport> {
        let conn = self.conn.as_ref()?;
        if conn.sb.una == 0 {
            return None; // nothing delivered yet
        }
        Some(conn.report(now.max(conn.start), false))
    }

    /// The in-progress connection's current RTO, if a flow is active.
    /// Under a persistent blackhole this exposes the exponential backoff
    /// saturating at [`SenderConfig::max_rto`].
    pub fn current_rto(&self) -> Option<Dur> {
        self.conn.as_ref().map(|c| c.rto)
    }

    /// Consecutive RTO expirations without forward progress on the
    /// in-progress connection (zero when idle or progressing).
    pub fn consecutive_rtos(&self) -> u32 {
        self.conn.as_ref().map_or(0, |c| c.consecutive_rtos)
    }

    fn schedule_next_flow(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(max) = self.cfg.max_flows {
            if self.flows_started >= max {
                self.done = true;
                return;
            }
        }
        let plan = self.source.next_flow();
        self.pending_bytes = plan.bytes;
        ctx.set_timer_after(Dur::from_nanos(plan.off_ns), TIMER_START);
    }

    fn begin_flow(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let snapshot = self.hook.lookup(now, ctx);
        let mut cc = (self.cc_factory)(snapshot.as_ref());
        cc.on_flow_start(now);

        let bytes = self.pending_bytes.max(1);
        let total = bytes.div_ceil(u64::from(wire::MSS));
        let last_payload = (bytes - (total - 1) * u64::from(wire::MSS)) as u32;
        let flow = FlowId(self.cfg.flow_id_base + self.flows_started);
        self.flows_started += 1;

        self.conn = Some(Conn {
            flow,
            cc,
            total,
            bytes,
            last_payload,
            next_seq: 0,
            pipe_end: 0,
            ever_sent: 0,
            sb: Scoreboard::default(),
            dup_acks: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: Dur::from_secs(1),
            min_rtt: None,
            rtt_sum_ms: 0.0,
            rtt_samples: 0,
            start: now,
            retransmits: 0,
            timeouts: 0,
            recoveries: 0,
            consecutive_rtos: 0,
            idle_restarts: 0,
            pace_next: now,
            pace_handle: None,
        });
        self.try_send(ctx);
        self.restart_rto(ctx);
    }

    /// End the in-progress flow, report it through the hook and move on
    /// to the next scheduled one. `aborted`: the consecutive-RTO cap was
    /// hit, so the path is treated as unreachable and the flow dies loudly
    /// — its report carries the bytes delivered before the failure, and
    /// the next flow doubles as the retry path once the network heals.
    fn finish_flow(&mut self, aborted: bool, ctx: &mut Ctx<'_>) {
        let conn = self.conn.take().expect("finish_flow with no connection");
        if let Some((h, _)) = self.rto_armed.take() {
            ctx.cancel_timer(h);
        }
        if let Some(h) = conn.pace_handle {
            ctx.cancel_timer(h);
        }
        let report = conn.report(ctx.now(), aborted);
        self.hook.report(&report, ctx);
        self.reports.push(report);
        self.schedule_next_flow(ctx);
    }

    /// Send retransmissions and new data as the window, the SACK
    /// scoreboard, and pacing allow.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        loop {
            let window = conn.cc.window().floor().max(1.0) as u64;
            // Limited transmit (RFC 3042): on the first two duplicate ACKs
            // send one new segment each beyond cwnd. The extra segments
            // keep the ACK clock alive, so a small-window flow can still
            // accumulate enough duplicate ACKs to fast-retransmit instead
            // of stalling into a timeout.
            let limited = if conn.sb.recovery.is_none() {
                u64::from(conn.dup_acks.min(2))
            } else {
                0
            };
            if conn.pipe() >= window + limited {
                return;
            }
            // Priority 1: fill known-lost holes during recovery.
            if let Some(seq) = conn.sb.next_hole() {
                conn.retransmit_hole(&self.cfg, seq, ctx);
                continue;
            }
            // Priority 2: new data.
            if conn.next_seq >= conn.total {
                return;
            }
            // Pacing gate applies to new data.
            if let Some(gap) = conn.cc.intersend() {
                if conn.pace_next > now {
                    if conn.pace_handle.is_none() {
                        conn.pace_handle = Some(ctx.set_timer_at(conn.pace_next, TIMER_PACE));
                    }
                    return;
                }
                conn.pace_next = now + gap;
            }
            // Skip segments the receiver already holds (SACKed survivors
            // of a go-back-N restart).
            while conn.next_seq < conn.total && conn.sb.mark(conn.next_seq) == Mark::Sacked {
                conn.next_seq += 1;
                conn.pipe_end = conn.pipe_end.max(conn.next_seq);
            }
            if conn.next_seq >= conn.total {
                return;
            }
            let seq = conn.next_seq;
            let retx = seq < conn.ever_sent;
            conn.next_seq += 1;
            conn.pipe_end = conn.pipe_end.max(conn.next_seq);
            conn.ever_sent = conn.ever_sent.max(conn.next_seq);
            if retx {
                conn.retransmits += 1;
            }
            ctx.send(conn.segment(&self.cfg, seq, retx));
        }
    }

    fn restart_rto(&mut self, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        if !conn.outstanding() {
            return;
        }
        conn.rto = conn.computed_rto(self.cfg.max_rto);
        let deadline = ctx.now() + conn.rto;
        self.rto_deadline = deadline;
        match self.rto_armed {
            // A timer due no later than the new deadline is already armed;
            // let it fire early and re-arm itself (the per-ACK hot path is
            // just the deadline write above).
            Some((_, at)) if at <= deadline => {}
            stale => {
                // Deadline moved *earlier* (e.g. first RTT sample shrinks
                // the initial 1 s RTO), or nothing armed.
                if let Some((h, _)) = stale {
                    ctx.cancel_timer(h);
                }
                let h = ctx.set_timer_at(deadline, TIMER_RTO);
                self.rto_armed = Some((h, deadline));
            }
        }
    }

    fn on_ack(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let live_util = self.hook.live_util(ctx);
        let Some(conn) = self.conn.as_mut() else {
            return; // stale ack from a finished flow
        };
        if pkt.flow != conn.flow {
            return; // stale ack from a previous flow
        }

        // Fold the ACK's SACK blocks into the scoreboard.
        for (s, e) in pkt.sack.iter() {
            conn.sb.sack(s.max(conn.sb.una), e.min(conn.ever_sent));
        }
        conn.sb.reopen_lost();

        if pkt.ack > conn.sb.una {
            let newly = pkt.ack - conn.sb.una;
            conn.dup_acks = 0;
            // Forward progress ends any RTO-backoff spiral. Two or more
            // consecutive timeouts mean the path was dead for a while and
            // healed: count an idle restart (the window was already
            // collapsed by `on_rto`, and `restart_rto` below re-derives
            // the RTO from the surviving RTT state instead of the
            // backed-off value).
            if conn.consecutive_rtos >= 2 {
                conn.idle_restarts += 1;
            }
            conn.consecutive_rtos = 0;
            conn.sb.advance(pkt.ack);
            // Late ACKs (e.g. for pre-timeout packets still in flight) can
            // advance past a go-back-N reset point; keep the send pointers
            // from regressing below delivered data.
            conn.pipe_end = conn.pipe_end.max(pkt.ack);
            conn.next_seq = conn.next_seq.max(pkt.ack);

            // Karn's rule: only sample RTT for segments never retransmitted.
            let rtt = if !pkt.is_retx() && pkt.echo <= now && pkt.echo > Time::ZERO {
                let sample = now - pkt.echo;
                conn.take_rtt_sample(sample);
                Some(sample)
            } else {
                None
            };

            let ev = AckEvent {
                now,
                rtt,
                min_rtt: conn.min_rtt,
                newly_acked: newly,
                sent_at: pkt.echo,
                shared_util: live_util,
                ece: pkt.flags.contains(Flags::ECE),
            };
            conn.cc.on_ack(&ev);

            if conn.sb.una >= conn.total {
                self.finish_flow(false, ctx);
                return;
            }
            self.restart_rto(ctx);
        } else if pkt.ack == conn.sb.una && conn.outstanding() {
            conn.dup_acks += 1;
            // Early retransmit (RFC 5827): with fewer segments outstanding
            // than `dupack_threshold + 1` the full duplicate-ACK count can
            // never arrive, so a squeezed flow (cwnd of 2–4 segments)
            // would convert every loss into a timeout. Lower the trigger
            // to outstanding − 1 in that regime.
            let ownd = conn.pipe_end.saturating_sub(conn.sb.una);
            let threshold = if ownd < u64::from(self.cfg.dupack_threshold) + 1 {
                ownd.saturating_sub(1).max(1) as u32
            } else {
                self.cfg.dupack_threshold
            };
            // RFC 6675 counts SACKed segments above the hole as the loss
            // signal, not just contiguous duplicate ACKs: partial
            // cumulative advances reset `dup_acks`, but a scoreboard with
            // `threshold` segments above the hole is proof enough.
            let signal = conn
                .dup_acks
                .max(u32::try_from(conn.sb.sacked).unwrap_or(u32::MAX));
            if conn.sb.recovery.is_none() && signal >= threshold {
                conn.recoveries += 1;
                conn.sb.recovery = Some(conn.pipe_end.saturating_sub(1));
                conn.cc.on_loss(&LossEvent { now });
                // Fast retransmit of the first hole, unconditionally:
                // outside recovery nothing is marked retransmitted, and
                // the receiver never SACKs its cumulative ack.
                let hole = conn.sb.una;
                conn.retransmit_hole(&self.cfg, hole, ctx);
                self.restart_rto(ctx);
            }
        }
        self.try_send(ctx);
    }

    /// The armed RTO timer fired. If the logical deadline has moved past
    /// the fire time (ACKs arrived since arming), this is a deferred
    /// re-arm, not a timeout.
    fn on_rto_fire(&mut self, ctx: &mut Ctx<'_>) {
        self.rto_armed = None; // the firing timer is consumed
        let now = ctx.now();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        if !conn.outstanding() {
            return;
        }
        if now < self.rto_deadline {
            let deadline = self.rto_deadline;
            let h = ctx.set_timer_at(deadline, TIMER_RTO);
            self.rto_armed = Some((h, deadline));
            return;
        }
        conn.timeouts += 1;
        conn.consecutive_rtos += 1;
        // The abort verdict: N consecutive timeouts with zero progress
        // while backoff sits at max_rto means the path is unreachable.
        if self
            .cfg
            .max_consecutive_rtos
            .is_some_and(|cap| conn.consecutive_rtos >= cap)
        {
            self.finish_flow(true, ctx);
            return;
        }
        conn.cc.on_rto(now);
        conn.dup_acks = 0;
        // SACKs stay, so the go-back-N resend below skips what the
        // receiver holds instead of wasting the pipe.
        conn.sb.end_episode();
        // Go-back-N: everything beyond the cumulative ack is presumed
        // lost; drain the pipe and resume from the ack point.
        conn.next_seq = conn.sb.una;
        conn.pipe_end = conn.sb.una;
        // Exponential backoff until the next valid RTT sample.
        conn.rto = (conn.rto * 2).min(self.cfg.max_rto);
        let deadline = now + conn.rto;
        self.rto_deadline = deadline;
        let h = ctx.set_timer_at(deadline, TIMER_RTO);
        self.rto_armed = Some((h, deadline));
        self.try_send(ctx);
    }
}

impl Agent for TcpSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_next_flow(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_ack() {
            self.on_ack(pkt, ctx);
            self.conn.iter().for_each(Conn::check);
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        match tok {
            TIMER_START => {
                if self.conn.is_none() && !self.done {
                    self.begin_flow(ctx);
                }
            }
            TIMER_RTO => {
                self.on_rto_fire(ctx);
                self.conn.iter().for_each(Conn::check);
            }
            // Stale pace timers are cancelled at flow end, so a firing one
            // always belongs to the current connection.
            TIMER_PACE => {
                if let Some(conn) = self.conn.as_mut() {
                    conn.pace_handle = None;
                }
                self.try_send(ctx);
            }
            _ => unreachable!("unknown timer token {tok}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::cubic::{Cubic, CubicParams};
    use crate::hook::NoHook;
    use crate::receiver::TcpReceiver;
    use phi_sim::engine::Simulator;
    use phi_sim::queue::Capacity;
    use phi_sim::topology::TopologyBuilder;
    use phi_workload::{OnOffConfig, OnOffSource, SeedRng};

    /// One sender/receiver pair over a configurable single link.
    fn pair_sim(
        rate_bps: u64,
        delay: Dur,
        cap: Capacity,
        bytes: f64,
        flows: u64,
        factory: CcFactory,
    ) -> (Simulator, phi_sim::packet::AgentId, phi_sim::packet::LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        let (fwd, _rev) = b.add_duplex(a, z, rate_bps, delay, cap);
        let mut sim = Simulator::new(b.build());
        let mut cfg = SenderConfig::new(z, 80, 10);
        cfg.max_flows = Some(flows);
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: bytes,
                mean_off_secs: 0.05,
                deterministic: true,
            },
            SeedRng::new(1),
        );
        let s = sim.add_agent(
            a,
            10,
            Box::new(TcpSender::new(cfg, source, factory, Box::new(NoHook))),
        );
        sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
        (sim, s, fwd)
    }

    #[test]
    fn clean_transfer_completes_without_retransmits() {
        let (mut sim, s, _l) = pair_sim(
            10_000_000,
            Dur::from_millis(10),
            Capacity::Packets(1000),
            100_000.0,
            1,
            Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
        );
        sim.run_until(Time::from_secs(30));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.reports().len(), 1);
        let r = &sender.reports()[0];
        assert_eq!(r.bytes, 100_000);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.timeouts, 0);
        assert!(r.rtt_samples > 0);
        // Base RTT 20ms + serialization; min RTT should be close to that.
        let min = r.min_rtt.unwrap();
        assert!(min >= Dur::from_millis(20), "min rtt {min}");
        assert!(min < Dur::from_millis(30), "min rtt {min}");
    }

    #[test]
    fn lossy_bottleneck_recovers_and_completes() {
        // Tiny queue forces drops during slow start with the huge default
        // ssthresh; the transfer must still complete via fast retransmit.
        let (mut sim, s, l) = pair_sim(
            2_000_000,
            Dur::from_millis(20),
            Capacity::Packets(10),
            400_000.0,
            1,
            Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
        );
        sim.run_until(Time::from_secs(60));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.is_done(), "transfer did not complete");
        let r = &sender.reports()[0];
        assert!(r.retransmits > 0, "expected retransmissions");
        assert!(r.recoveries > 0, "expected fast recovery episodes");
        assert!(sim.link_stats(l).dropped > 0);
        assert_eq!(r.bytes, 400_000);
    }

    #[test]
    fn sack_recovery_fills_many_holes_quickly() {
        // Cubic's default huge ssthresh overshoots a 20-packet queue during
        // slow start, dropping a burst of segments at once. With the SACK
        // scoreboard, recovery repairs many holes per RTT, so the 400 KB
        // transfer finishes promptly; one-hole-per-RTT recovery would need
        // retransmits x RTT ≈ several seconds.
        let (mut sim, s, _l) = pair_sim(
            20_000_000,
            Dur::from_millis(12), // 24 ms base RTT
            Capacity::Packets(20),
            400_000.0,
            1,
            Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
        );
        sim.run_until(Time::from_secs(30));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.is_done(), "transfer did not complete");
        let r = &sender.reports()[0];
        assert!(r.retransmits > 10, "mass loss expected: {}", r.retransmits);
        let dur = r.duration();
        let one_per_rtt = Dur::from_millis(24 * r.retransmits);
        assert!(
            dur < Dur::from_millis(1500) && dur < one_per_rtt / 2,
            "SACK recovery too slow: {dur} for {} retx",
            r.retransmits
        );
    }

    #[test]
    fn sequential_flows_reset_congestion_state() {
        let (mut sim, s, _l) = pair_sim(
            10_000_000,
            Dur::from_millis(10),
            Capacity::Packets(1000),
            50_000.0,
            3,
            Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
        );
        sim.run_until(Time::from_secs(60));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert_eq!(sender.reports().len(), 3);
        // Flow ids are sequential.
        let ids: Vec<u64> = sender.reports().iter().map(|r| r.flow.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Flows don't overlap in time.
        for w in sender.reports().windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn fixed_window_saturates_link() {
        // Window far above the BDP and more data than fits in the run:
        // the link should stay busy nearly the whole time.
        let (mut sim, _s, l) = pair_sim(
            5_000_000,
            Dur::from_millis(10),
            Capacity::Bytes(200_000),
            100_000_000.0, // never finishes within the deadline
            1,
            Box::new(|_| Box::new(FixedWindow::new(100.0))),
        );
        let end = sim.run_until(Time::from_secs(10));
        let elapsed = end.saturating_since(Time::ZERO);
        let util = sim.link_stats(l).utilization(elapsed);
        assert!(util > 0.9, "utilization {util}");
    }

    #[test]
    fn extreme_queue_still_completes() {
        let (mut sim, s, _l) = pair_sim(
            500_000,
            Dur::from_millis(50),
            Capacity::Packets(1),
            200_000.0,
            1,
            Box::new(|_| Box::new(FixedWindow::new(64.0))),
        );
        sim.run_until(Time::from_secs(300));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.is_done(), "transfer did not complete");
        let r = &sender.reports()[0];
        assert!(
            r.timeouts > 0 || r.recoveries > 0,
            "expected loss recovery (retransmits {})",
            r.retransmits
        );
    }

    #[test]
    fn partial_report_tracks_in_progress_flow() {
        let (mut sim, s, _l) = pair_sim(
            5_000_000,
            Dur::from_millis(10),
            Capacity::Packets(1000),
            100_000_000.0, // will not finish
            1,
            Box::new(|_| Box::new(FixedWindow::new(50.0))),
        );
        sim.run_until(Time::from_secs(5));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(!sender.is_done());
        assert!(sender.reports().is_empty());
        let p = sender.partial_report(Time::from_secs(5)).unwrap();
        assert!(p.bytes > 1_000_000, "partial bytes {}", p.bytes);
        assert!(p.bytes < 100_000_000);
        assert!(p.rtt_samples > 0);
        // Roughly link rate over the window.
        let mbps = p.throughput_bps() / 1e6;
        assert!(mbps > 3.0 && mbps <= 5.2, "partial throughput {mbps}");
    }

    /// Like `pair_sim`, but with an impairment plan installed on the
    /// forward (data) link and a consecutive-RTO abort cap on the sender.
    fn faulty_pair(
        plan: phi_sim::faults::ImpairmentPlan,
        max_consecutive_rtos: Option<u32>,
        max_rto: Dur,
        bytes: f64,
    ) -> (Simulator, phi_sim::packet::AgentId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        let (fwd, _rev) = b.add_duplex(
            a,
            z,
            2_000_000,
            Dur::from_millis(20),
            Capacity::Packets(100),
        );
        let mut sim = Simulator::new(b.build());
        sim.install_impairments(fwd, plan, &SeedRng::new(77));
        let mut cfg = SenderConfig::new(z, 80, 10);
        cfg.max_flows = Some(1);
        cfg.max_rto = max_rto;
        cfg.max_consecutive_rtos = max_consecutive_rtos;
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: bytes,
                mean_off_secs: 0.01,
                deterministic: true,
            },
            SeedRng::new(1),
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
        sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
        (sim, s)
    }

    /// A permanent blackhole in mid-transfer.
    fn blackhole_plan() -> phi_sim::faults::ImpairmentPlan {
        phi_sim::faults::ImpairmentPlan::new()
            .outage(Time::from_millis(100), Time::from_secs(100_000))
    }

    #[test]
    fn permanent_blackhole_pins_rto_at_max_then_aborts() {
        let max_rto = Dur::from_secs(2);
        let (mut sim, s) = faulty_pair(blackhole_plan(), Some(6), max_rto, 500_000.0);
        // Mid-spiral: backoff must have saturated at max_rto with several
        // consecutive timeouts on the books, flow still alive.
        sim.run_until(Time::from_secs(4));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(
            sender.consecutive_rtos() >= 3,
            "expected an RTO spiral, got {}",
            sender.consecutive_rtos()
        );
        assert_eq!(
            sender.current_rto(),
            Some(max_rto),
            "backoff must pin at max_rto"
        );
        assert!(sender.reports().is_empty(), "no verdict before the cap");

        sim.run_until(Time::from_secs(60));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert_eq!(sender.reports().len(), 1, "the flow must die loudly");
        let r = &sender.reports()[0];
        assert!(r.aborted, "verdict must be an abort: {r:?}");
        assert_eq!(r.timeouts, 6, "abort exactly at the cap");
        assert_eq!(r.idle_restarts, 0);
        assert!(r.bytes > 0, "pre-outage progress is reported");
        assert!(r.bytes < 500_000, "the transfer cannot have finished");
        assert!(sender.is_done());
        assert!(sender.current_rto().is_none(), "no connection after abort");
    }

    #[test]
    fn abort_is_deterministic() {
        let run = || {
            let (mut sim, s) = faulty_pair(blackhole_plan(), Some(5), Dur::from_secs(1), 500_000.0);
            sim.run_until(Time::from_secs(60));
            let sender = sim.agent_as::<TcpSender>(s).unwrap();
            let r = &sender.reports()[0];
            (r.end, r.bytes, r.timeouts, sim.events_processed())
        };
        let first = run();
        assert_eq!(run(), first);
        assert_eq!(first.2, 5);
    }

    #[test]
    fn heal_before_cap_triggers_idle_restart_and_completion() {
        // Outage 100 ms..2 s, cap of 10: the spiral reaches 3-4 timeouts,
        // then the healed link lets the pending go-back-N retransmission
        // through and the transfer completes normally.
        let plan = phi_sim::faults::ImpairmentPlan::new()
            .outage(Time::from_millis(100), Time::from_secs(2));
        let (mut sim, s) = faulty_pair(plan, Some(10), Dur::from_secs(2), 200_000.0);
        sim.run_until(Time::from_secs(120));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.is_done(), "transfer must complete after the heal");
        let r = &sender.reports()[0];
        assert!(!r.aborted, "heal must beat the abort cap: {r:?}");
        assert_eq!(r.bytes, 200_000);
        assert!(r.timeouts >= 2, "the outage must have cost timeouts: {r:?}");
        assert!(
            r.idle_restarts >= 1,
            "recovery after >= 2 consecutive RTOs is an idle restart: {r:?}"
        );
    }

    #[test]
    fn no_cap_means_classic_spin_forever() {
        // Without the cap the sender never gives up: same blackhole, no
        // report, connection still alive with rto pinned at max.
        let (mut sim, s) = faulty_pair(blackhole_plan(), None, Dur::from_secs(1), 500_000.0);
        sim.run_until(Time::from_secs(60));
        let sender = sim.agent_as::<TcpSender>(s).unwrap();
        assert!(sender.reports().is_empty());
        assert!(!sender.is_done());
        assert_eq!(sender.current_rto(), Some(Dur::from_secs(1)));
        assert!(sender.consecutive_rtos() > 10);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let (mut sim, s, l) = pair_sim(
                2_000_000,
                Dur::from_millis(20),
                Capacity::Packets(20),
                300_000.0,
                2,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
            );
            sim.run_until(Time::from_secs(120));
            let sender = sim.agent_as::<TcpSender>(s).unwrap();
            let ends: Vec<Time> = sender.reports().iter().map(|r| r.end).collect();
            (ends, sim.link_stats(l).dropped, sim.events_processed())
        };
        assert_eq!(run(), run());
    }
}
