//! The SACK scoreboard and its recovery episode (RFC 6675).

use std::collections::VecDeque;

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

/// The SACK scoreboard, the duplicate-ACK count and the recovery episode:
/// segment `una + i` is `marks[i]`, and every segment past the end is
/// `Out`. The ring reaches only as far as the highest SACKed or
/// retransmitted segment, so it is empty outside loss recovery, and
/// running counts spare the pipe estimate and the SACK-count loss signal
/// a scan.
#[derive(Default)]
pub(super) struct Scoreboard {
    /// Cumulative acknowledgment (next expected by the receiver).
    pub(super) una: u64,
    marks: VecDeque<Mark>,
    /// `Sacked` marks.
    pub(super) sacked: u64,
    /// `Retx` marks: retransmissions in flight.
    retx: u64,
    /// The highest SACKed segment, while there is one.
    high: Option<u64>,
    /// Recovery point: in recovery until the cumulative ack exceeds it.
    pub(super) recovery: Option<u64>,
    /// Duplicate ACKs since the cumulative ack last moved.
    pub(super) dup_acks: u32,
}

impl Scoreboard {
    fn mark(&self, seq: u64) -> Mark {
        let i = (seq - self.una) as usize;
        self.marks.get(i).copied().unwrap_or(Mark::Out)
    }

    pub(super) fn is_sacked(&self, seq: u64) -> bool {
        self.mark(seq) == Mark::Sacked
    }

    /// `seq`'s mark, growing the ring to hold it.
    fn slot(&mut self, seq: u64) -> &mut Mark {
        let i = (seq - self.una) as usize;
        if i >= self.marks.len() {
            self.marks.resize(i + 1, Mark::Out);
        }
        &mut self.marks[i]
    }

    /// RFC 6675-style pipe estimate with `next` the next segment to send:
    /// what was sent above the highest SACKed segment (the holes below it
    /// are "known lost", and SACKed segments have left), plus the
    /// retransmissions in flight. Without SACK information it degrades to
    /// the classic duplicate-ACK inflation.
    pub(super) fn pipe(&self, next: u64) -> u64 {
        let departed = self
            .high
            .map_or(self.una + u64::from(self.dup_acks), |h| h + 1);
        next.saturating_sub(departed) + self.retx
    }

    /// The receiver holds segments `lo..hi`.
    pub(super) fn sack(&mut self, lo: u64, hi: u64) {
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
    pub(super) fn retransmit(&mut self, seq: u64, frontier: u64) {
        let was = std::mem::replace(self.slot(seq), Mark::Retx(frontier));
        debug_assert_eq!(was, Mark::Out, "retransmitting {seq}");
        self.retx += 1;
    }

    /// In recovery, the lowest "known lost" hole not yet retransmitted
    /// this episode: `Out`, and below the highest SACKed segment.
    pub(super) fn next_hole(&self) -> Option<u64> {
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
    pub(super) fn reopen_lost(&mut self) {
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

    /// The cumulative ack moved up to `ack`: forget the duplicate ACKs
    /// and the marks below it, and end the episode once past the
    /// recovery point.
    pub(super) fn advance(&mut self, ack: u64) {
        self.dup_acks = 0;
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
    pub(super) fn end_episode(&mut self) {
        for m in &mut self.marks {
            if let Mark::Retx(_) = m {
                *m = Mark::Out;
            }
        }
        self.retx = 0;
        self.recovery = None;
    }

    /// Debug-build invariants against the send frontier `sent`: SACKed
    /// segments lie in `[una, sent)`, the retransmissions counted in
    /// flight are exactly this episode's retransmitted holes that are
    /// not SACKed, and the SACK counts match the marks.
    pub(super) fn check(&self, sent: u64) {
        let count = |f: fn(&Mark) -> bool| self.marks.iter().filter(|m| f(m)).count() as u64;
        let high = self.marks.iter().rposition(|m| *m == Mark::Sacked);
        let high = high.map(|i| self.una + i as u64);
        debug_assert!(high.is_none_or(|h| h < sent), "SACKed past {sent}");
        debug_assert_eq!(
            (self.sacked, self.high),
            (count(|m| *m == Mark::Sacked), high)
        );
        debug_assert_eq!(
            self.retx,
            count(|m| matches!(m, Mark::Retx(_))),
            "in flight"
        );
    }
}
