//! The one heartbeat mechanism behind every driver's resilient mode.
//!
//! Fail-stop deaths are silent in the simulator, so a rank can only
//! *suspect* a peer whose traffic stopped. The four drivers differ in whom
//! a rank watches, whom it beats and what it does about a death (DESIGN §3);
//! the loop itself is the same everywhere and lives here:
//!
//! * every message is proof of life from its sender ([`Liveness::heard`]);
//! * a tick armed every `period` ([`Liveness::arm`], token [`WAKE_BEAT`])
//!   sweeps the failure detector and says whether to beat again
//!   ([`Liveness::tick`]) — ticks stop re-arming past `deadline`, so no
//!   death schedule can keep the event queue alive forever;
//! * the membership view — who is dead, when this rank suspected whom, how
//!   much work it took over — is recorded once ([`Liveness::mark_dead`]).
//!
//! A rank holds `Option<Liveness>`: `None` outside rank-chaos runs, so a
//! fault-free schedule never sees a beat or a tick.

use crate::config::RankChaos;
use crate::msg::Msg;
use serde::{Deserialize, Serialize};
use streamline_desim::{Context, Event, HeartbeatMonitor};

/// Wake token of the heartbeat tick, shared by every driver (each driver's
/// own wake tokens stay below it).
pub const WAKE_BEAT: u64 = 10;

/// One rank's failure detector, heartbeat cadence and membership view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Liveness {
    /// Virtual seconds between heartbeat ticks.
    pub period: f64,
    /// Ticks stop re-arming past this virtual time
    /// ([`RankChaos::beat_deadline`]).
    pub deadline: f64,
    /// Failure detector over the peers this rank watches.
    pub monitor: HeartbeatMonitor,
    /// A heartbeat tick is armed.
    pub armed: bool,
    /// The live ring predecessor a ring topology (Load On Demand, steal)
    /// watches; `None` for the other topologies.
    pub ring_watch: Option<usize>,
    /// This rank's view of dead ranks, sorted.
    pub dead: Vec<u32>,
    /// `(rank, virtual time)` of each death this rank's own monitor
    /// detected — the raw material for detection-latency accounting.
    pub suspected_at: Vec<(usize, f64)>,
    /// Streamlines this rank re-seeded or re-queued on behalf of dead ranks.
    pub reassigned: u64,
}

impl Liveness {
    /// The detector a rank of an `n_ranks` run uses under `rc`.
    pub fn new(rc: &RankChaos, n_ranks: usize) -> Self {
        Liveness {
            period: rc.heartbeat_period,
            deadline: rc.beat_deadline(n_ranks),
            monitor: HeartbeatMonitor::new(rc.suspect_timeout),
            armed: false,
            ring_watch: None,
            dead: Vec::new(),
            suspected_at: Vec::new(),
            reassigned: 0,
        }
    }

    /// Any message is proof of life from its sender.
    pub fn heard(&mut self, ev: &Event<Msg>, now: f64) {
        if let Event::Message { from, .. } = ev {
            self.monitor.beat(*from, now);
        }
    }

    /// Arm the next heartbeat tick unless one is already pending.
    pub fn arm(&mut self, ctx: &mut dyn Context<Msg>) {
        if !self.armed {
            self.armed = true;
            ctx.wake_after(self.period, WAKE_BEAT);
        }
    }

    /// The heartbeat tick fired: sweep the failure detector. Returns the
    /// newly suspected ranks (ascending) and whether this rank should beat
    /// and re-arm (the deadline has not passed).
    pub fn tick(&mut self, now: f64) -> (Vec<usize>, bool) {
        self.armed = false;
        (self.monitor.sweep(now), now <= self.deadline)
    }

    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.binary_search(&(rank as u32)).is_ok()
    }

    /// Record `rank` as dead and stop watching it; `own` marks a detection
    /// by this rank's monitor (as opposed to gossip). Returns false when
    /// the death was already known.
    pub fn mark_dead(&mut self, rank: usize, now: f64, own: bool) -> bool {
        let Err(i) = self.dead.binary_search(&(rank as u32)) else { return false };
        self.dead.insert(i, rank as u32);
        if own {
            self.suspected_at.push((rank, now));
        }
        self.monitor.unwatch(rank);
        true
    }

    /// Ranks of `0..n` this view believes alive, ascending. Always holds
    /// `me`: a rank never counts itself dead.
    pub fn live_ranks(&self, me: usize, n: usize) -> Vec<usize> {
        (0..n).filter(|&p| p == me || !self.is_dead(p)).collect()
    }

    /// Ring topology: watch `me`'s live predecessor (the rank whose beats
    /// `me` receives), moving the watch when membership changed.
    pub fn watch_ring_predecessor(&mut self, me: usize, n: usize, now: f64) {
        let live = self.live_ranks(me, n);
        let m = live.len();
        let i = live.iter().position(|&r| r == me).expect("self is alive");
        let pred = if m >= 2 { Some(live[(i + m - 1) % m]) } else { None };
        if self.ring_watch != pred {
            if let Some(old) = self.ring_watch.take() {
                self.monitor.unwatch(old);
            }
            if let Some(p) = pred {
                self.ring_watch = Some(p);
                self.monitor.watch(p, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::NullCtx;

    fn live() -> Liveness {
        let mut rc = RankChaos::seeded(0);
        rc.heartbeat_period = 0.1;
        rc.suspect_timeout = 1.0;
        Liveness::new(&rc, 4)
    }

    #[test]
    fn arm_schedules_one_tick_until_it_fires() {
        let mut l = live();
        let mut ctx = NullCtx::default();
        l.arm(&mut ctx);
        l.arm(&mut ctx);
        assert_eq!(ctx.wakes, vec![(0.1, WAKE_BEAT)]);
        let (newly, beat) = l.tick(0.1);
        assert!(newly.is_empty() && beat);
        l.arm(&mut ctx);
        assert_eq!(ctx.wakes.len(), 2);
        assert!(!l.tick(l.deadline + 1.0).1, "no beats past the deadline");
    }

    #[test]
    fn silence_is_suspected_and_traffic_is_proof_of_life() {
        let mut l = live();
        l.monitor.watch(1, 0.0);
        l.monitor.watch(2, 0.0);
        l.heard(&Event::Message { from: 2, msg: Msg::Beat }, 0.9);
        let (newly, _) = l.tick(1.5);
        assert_eq!(newly, vec![1]);
        assert!(l.mark_dead(1, 1.5, true));
        assert!(!l.mark_dead(1, 1.6, true), "a death is recorded once");
        assert!(l.mark_dead(3, 1.6, false), "gossip joins the view");
        assert_eq!(l.suspected_at, vec![(1, 1.5)], "only own detections are timed");
        assert_eq!(l.live_ranks(0, 4), vec![0, 2]);
    }

    #[test]
    fn ring_watch_follows_membership() {
        let mut l = live();
        l.watch_ring_predecessor(2, 4, 0.0);
        assert_eq!(l.ring_watch, Some(1));
        l.mark_dead(1, 0.5, true);
        l.watch_ring_predecessor(2, 4, 0.5);
        assert_eq!(l.ring_watch, Some(0));
        assert_eq!(l.monitor.watched().collect::<Vec<_>>(), vec![0]);
    }
}
