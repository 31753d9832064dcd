//! Doorbell watchdog: recover from a lost queue kick.
//!
//! Event-index suppression makes doorbells rare, which makes a *lost*
//! doorbell expensive: the device never polls, the driver never sees a
//! completion, and the queue wedges until something else rings it. Real
//! frontends guard against this with a timer (virtio-net's tx watchdog,
//! blk-mq's request timeout). The model is the same here: arm when the
//! driver kicks, disarm when completions arrive, and if the timeout
//! lapses with the doorbell still outstanding, ring it again.
//!
//! The watchdog is deliberately OS-agnostic — every
//! [`crate::frontend::Frontend`] embeds one, and each OS's
//! `virtio::frontend()` sets only its timeout (a lightweight kernel or
//! Theseus can afford a tight watchdog; Linux's is coarser, matching its
//! jiffy-resolution timers).

use kh_sim::Nanos;

/// Re-kick timer for one queue direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KickWatchdog {
    /// How long a kick may remain unanswered before it is re-rung.
    pub timeout: Nanos,
    /// Virtual time of the oldest unanswered kick, if any.
    armed_at: Option<Nanos>,
    /// Total re-kicks issued (diagnostics; also drives the ablation
    /// table's recovery column).
    pub rekicks: u64,
}

impl KickWatchdog {
    pub fn new(timeout: Nanos) -> Self {
        KickWatchdog {
            timeout,
            armed_at: None,
            rekicks: 0,
        }
    }

    /// The driver rang the doorbell: arm (but do not push out an
    /// already-armed deadline — the *oldest* unanswered kick bounds the
    /// wait).
    pub fn note_kick(&mut self, now: Nanos) {
        if self.armed_at.is_none() {
            self.armed_at = Some(now);
        }
    }

    /// Completions arrived: the doorbell was heard, disarm.
    pub fn note_completion(&mut self) {
        self.armed_at = None;
    }

    /// Whether the re-kick deadline has lapsed.
    pub fn due(&self, now: Nanos) -> bool {
        matches!(self.armed_at, Some(at) if now >= at + self.timeout)
    }

    /// If due, consume the deadline: count the re-kick and re-arm from
    /// `now` (a second loss waits a full timeout again). Returns whether
    /// the caller should ring the doorbell.
    pub fn fire(&mut self, now: Nanos) -> bool {
        if !self.due(now) {
            return false;
        }
        self.rekicks += 1;
        self.armed_at = Some(now);
        true
    }

    pub fn is_armed(&self) -> bool {
        self.armed_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_after_timeout_and_rearms() {
        let mut w = KickWatchdog::new(Nanos(1000));
        w.note_kick(Nanos(100));
        assert!(!w.fire(Nanos(1099)));
        assert!(w.fire(Nanos(1100)), "deadline lapsed");
        assert_eq!(w.rekicks, 1);
        // Re-armed from the fire time, not the original kick.
        assert!(!w.fire(Nanos(1500)));
        assert!(w.fire(Nanos(2100)));
        assert_eq!(w.rekicks, 2);
    }

    #[test]
    fn completion_disarms() {
        let mut w = KickWatchdog::new(Nanos(1000));
        w.note_kick(Nanos(0));
        w.note_completion();
        assert!(!w.is_armed());
        assert!(!w.fire(Nanos(10_000)));
        assert_eq!(w.rekicks, 0);
    }

    #[test]
    fn oldest_kick_bounds_the_wait() {
        let mut w = KickWatchdog::new(Nanos(1000));
        w.note_kick(Nanos(0));
        w.note_kick(Nanos(900)); // must not push the deadline out
        assert!(w.fire(Nanos(1000)));
    }

    #[test]
    fn unarmed_watchdog_never_fires() {
        let mut w = KickWatchdog::new(Nanos(1000));
        assert!(!w.due(Nanos(u64::MAX)));
        assert!(!w.fire(Nanos(u64::MAX)));
    }
}
