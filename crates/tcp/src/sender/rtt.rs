//! RTT estimation and the retransmission timer (Jacobson/Karels, RFC 6298).

use phi_sim::engine::{Ctx, TimerHandle};
use phi_sim::time::{Dur, Time};

use super::TIMER_RTO;

/// Lower bound on the retransmission timeout (Linux's `TCP_RTO_MIN`).
const MIN_RTO: Dur = Dur::from_millis(200);
/// The timeout before the first RTT sample.
const FIRST_RTO: Dur = Dur::from_secs(1);

/// One connection's RTT estimate, its samples, and its RTO timer.
///
/// Classic senders push a fresh RTO timer on every ACK, leaving a trail
/// of dead events in the engine queue. Instead at most one timer is
/// armed, beside the *logical* deadline: extending the deadline is a
/// field write, and when the armed timer fires early (`now < deadline`)
/// it simply re-arms at the stored deadline — roughly one queue event per
/// RTO period instead of one per ACK, with the real timeout firing at
/// exactly the same instant.
#[derive(Default)]
pub(super) struct Rtt {
    srtt: Option<Dur>,
    rttvar: Dur,
    /// The current timeout: computed from the estimate when the timer
    /// restarts, or backed off since.
    pub(super) rto: Dur,
    pub(super) min: Option<Dur>,
    pub(super) sum_ms: f64,
    pub(super) samples: u64,
    /// When the timeout is actually due.
    deadline: Time,
    /// The armed timer and its fire time, if any.
    armed: Option<(TimerHandle, Time)>,
}

impl Rtt {
    pub(super) fn sample(&mut self, sample: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = Dur::from_nanos(srtt.as_nanos().abs_diff(sample.as_nanos()));
                self.rttvar = Dur::from_nanos(
                    (3 * self.rttvar.as_nanos() / 4).saturating_add(err.as_nanos() / 4),
                );
                self.srtt = Some(Dur::from_nanos(
                    (7 * srtt.as_nanos() / 8).saturating_add(sample.as_nanos() / 8),
                ));
            }
        }
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.sum_ms += sample.as_millis_f64();
        self.samples += 1;
    }

    /// Restart the timer one RTO, recomputed from the estimate, from now.
    pub(super) fn restart(&mut self, max_rto: Dur, ctx: &mut Ctx<'_>) {
        self.rto = match self.srtt {
            None => FIRST_RTO,
            Some(srtt) => (srtt + (self.rttvar * 4).max(Dur::from_millis(1)))
                .max(MIN_RTO)
                .min(max_rto),
        };
        self.deadline = ctx.now() + self.rto;
        match self.armed {
            // A timer due no later than the new deadline is already armed;
            // let it fire early and re-arm itself (the per-ACK hot path is
            // just the deadline write above).
            Some((_, at)) if at <= self.deadline => {}
            stale => {
                // Deadline moved *earlier* (e.g. first RTT sample shrinks
                // the initial 1 s RTO), or nothing armed.
                if let Some((h, _)) = stale {
                    ctx.cancel_timer(h);
                }
                self.arm(ctx);
            }
        }
    }

    /// The armed timer fired: true if the timeout is due, else it re-arms
    /// at the deadline (ACKs arrived since arming).
    pub(super) fn fired(&mut self, ctx: &mut Ctx<'_>) -> bool {
        self.armed = None;
        if ctx.now() < self.deadline {
            self.arm(ctx);
            return false;
        }
        true
    }

    /// After a timeout: double the RTO, up to `max_rto`, until the next
    /// valid RTT sample, and re-arm.
    pub(super) fn back_off(&mut self, max_rto: Dur, ctx: &mut Ctx<'_>) {
        self.rto = (self.rto * 2).min(max_rto);
        self.deadline = ctx.now() + self.rto;
        self.arm(ctx);
    }

    /// The connection is over.
    pub(super) fn cancel(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((h, _)) = self.armed.take() {
            ctx.cancel_timer(h);
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        self.armed = Some((ctx.set_timer_at(self.deadline, TIMER_RTO), self.deadline));
    }
}
