//! The deterministic discrete-event simulation.
//!
//! Each rank has a local virtual clock. Events are executed globally in
//! (time, sequence) order; an event arriving at a rank whose clock is ahead
//! executes at the rank's clock (the rank was busy — messages queue).
//! Handlers advance their rank's clock by the compute/I-O/communication time
//! they charge. Ties are broken by a monotone sequence number, so the whole
//! schedule is a pure function of the inputs.

use crate::event::Event;
use crate::metrics::{ProcMetrics, SimReport};
use crate::net::NetModel;
use crate::process::{Context, Process};
use crate::trace::{ChargeKind, Timeline};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<M> {
    time: f64,
    seq: u64,
    to: usize,
    /// Receive-side cost to charge before the handler runs (message events).
    recv_cost: f64,
    recv_bytes: u64,
    ev: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One undelivered event in a [`SimState`] cut, with the delivery metadata
/// the scheduler attached when it was enqueued.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEvent<M> {
    pub time: f64,
    pub seq: u64,
    pub to: usize,
    pub recv_cost: f64,
    pub recv_bytes: u64,
    pub ev: Event<M>,
}

/// A consistent between-events cut of a running simulation: per-rank clocks
/// and metrics, the scheduler counters, and every undelivered event. The
/// schedule is a pure function of this state, so a simulation resumed from a
/// cut completes bit-identically to one that never paused.
#[derive(Debug, Clone)]
pub struct SimState<M> {
    pub clocks: Vec<f64>,
    pub metrics: Vec<ProcMetrics>,
    /// Next sequence number the scheduler will assign.
    pub next_seq: u64,
    /// Events processed so far.
    pub events: u64,
    /// Undelivered events, sorted by `(time, seq)` — the pop order.
    pub pending: Vec<PendingEvent<M>>,
    /// Rank deaths applied so far, as `(rank, virtual time)` in application
    /// order. A resumed simulation skips these when replaying its death
    /// schedule, so a cut taken after a fail-stop restores exactly.
    pub dead: Vec<(usize, f64)>,
    /// Events silently dropped so far because their target or sender was
    /// dead.
    pub dropped_events: u64,
}

/// What a checkpoint hook tells the simulation to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointControl {
    Continue,
    /// Abandon the run immediately (used by kill-mid-run tests; a real crash
    /// is the same thing without the courtesy).
    Stop,
}

/// Periodic checkpoint configuration: fire `hook` whenever the next event
/// would cross an `interval` boundary of virtual time.
type CkptHook<'a, M, P> = (f64, &'a mut dyn FnMut(&SimState<M>, &[P]) -> CheckpointControl);

/// Context handed to handlers during simulation.
struct DesCtx<'a, M> {
    rank: usize,
    n_ranks: usize,
    /// Virtual time the handler started executing.
    exec_time: f64,
    /// Time charged so far inside this handler.
    elapsed: f64,
    metrics: &'a mut ProcMetrics,
    net: NetModel,
    /// (delivery_time, to, bytes, msg) accumulated sends.
    outbox: Vec<(f64, usize, usize, M)>,
    /// (absolute_time, token) accumulated self-wakes.
    wakes: Vec<(f64, u64)>,
    stop: &'a mut bool,
    trace: Option<&'a mut Timeline>,
}

impl<M> Context<M> for DesCtx<'_, M> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    fn now(&self) -> f64 {
        self.exec_time + self.elapsed
    }

    fn charge_compute(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        if let Some(t) = self.trace.as_deref_mut() {
            t.add(self.rank, ChargeKind::Compute, self.exec_time + self.elapsed, secs);
        }
        self.elapsed += secs;
        self.metrics.compute += secs;
    }

    fn charge_io(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        if let Some(t) = self.trace.as_deref_mut() {
            t.add(self.rank, ChargeKind::Io, self.exec_time + self.elapsed, secs);
        }
        self.elapsed += secs;
        self.metrics.io += secs;
    }

    fn send(&mut self, to: usize, msg: M, bytes: usize) {
        debug_assert!(to < self.n_ranks, "send to unknown rank {to}");
        let cost = self.net.send_cost(bytes);
        if let Some(t) = self.trace.as_deref_mut() {
            t.add(self.rank, ChargeKind::Comm, self.exec_time + self.elapsed, cost);
        }
        self.elapsed += cost;
        self.metrics.comm += cost;
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += bytes as u64;
        let delivery = self.now() + self.net.transit(bytes);
        self.outbox.push((delivery, to, bytes, msg));
    }

    fn wake_after(&mut self, delay: f64, token: u64) {
        debug_assert!(delay >= 0.0 && delay.is_finite());
        self.wakes.push((self.now() + delay, token));
    }

    fn stop_all(&mut self) {
        *self.stop = true;
    }
}

/// The discrete-event simulation over `n` ranks running processes of type
/// `P` exchanging messages of type `M`.
///
/// ```
/// use streamline_desim::{Context, Event, NetModel, Process, Simulation};
///
/// struct Echo;
/// impl Process<u32> for Echo {
///     fn on_event(&mut self, ev: Event<u32>, ctx: &mut dyn Context<u32>) {
///         match ev {
///             Event::Start if ctx.rank() == 0 => ctx.send(1, 41, 8),
///             Event::Message { msg, .. } => {
///                 ctx.charge_compute(1e-3);
///                 assert_eq!(msg, 41);
///                 ctx.stop_all();
///             }
///             _ => {}
///         }
///     }
/// }
///
/// let (report, _) = Simulation::new(NetModel::paper_scale(), vec![Echo, Echo]).run();
/// assert!(report.wall >= 1e-3); // the receiver's compute is on the critical path
/// ```
pub struct Simulation<M, P> {
    net: NetModel,
    procs: Vec<P>,
    /// Fail-stop schedule: `(rank, virtual time)` kills, applied in time
    /// order just before the first event at or past each kill time.
    deaths: Vec<(usize, f64)>,
    /// Pre-scheduled open-loop arrivals: `(time, rank, message)` delivered
    /// as self-addressed messages at their ingest times.
    arrivals: Vec<(f64, usize, M)>,
    _marker: std::marker::PhantomData<M>,
}

/// Default safety valve on total events (livelock guard).
pub const DEFAULT_MAX_EVENTS: u64 = 50_000_000;

impl<M: Clone, P: Process<M>> Simulation<M, P> {
    pub fn new(net: NetModel, procs: Vec<P>) -> Self {
        assert!(!procs.is_empty(), "simulation needs at least one rank");
        Simulation {
            net,
            procs,
            deaths: Vec::new(),
            arrivals: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Schedule messages to arrive from outside the cluster: each
    /// `(time, rank, msg)` is delivered to `rank` as an ordinary
    /// (self-addressed) message at virtual `time` — the substrate for
    /// open-loop seed ingestion. Arrivals are enqueued only on a fresh
    /// run; on [`Simulation::resume`] any not-yet-delivered arrival is
    /// already in [`SimState::pending`] and re-adding it would duplicate
    /// ingestion. An empty schedule leaves the run bit-identical to
    /// [`Simulation::new`] alone.
    pub fn with_arrivals(mut self, arrivals: Vec<(f64, usize, M)>) -> Self {
        for &(time, rank, _) in &arrivals {
            assert!(rank < self.procs.len(), "arrival scheduled for unknown rank {rank}");
            assert!(
                time.is_finite() && time >= 0.0,
                "arrival time must be finite and non-negative"
            );
        }
        self.arrivals = arrivals;
        self
    }

    /// Schedule fail-stop rank deaths: at each `(rank, time)` the rank is
    /// killed just before the first event at or past `time` is delivered.
    /// From then on every event addressed to it is silently dropped, and so
    /// is every in-flight message it sent — no notification of any kind is
    /// generated. Survivors can only learn of the death by timeout.
    ///
    /// An empty schedule leaves the run bit-identical to [`Simulation::new`]
    /// alone. Duplicate entries for a rank are idempotent (first time wins).
    pub fn with_rank_deaths(mut self, mut deaths: Vec<(usize, f64)>) -> Self {
        for &(rank, time) in &deaths {
            assert!(rank < self.procs.len(), "death scheduled for unknown rank {rank}");
            assert!(time.is_finite() && time >= 0.0, "death time must be finite and non-negative");
        }
        deaths.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        self.deaths = deaths;
        self
    }

    /// Run to completion (event queue empty or a process called
    /// `stop_all`). Returns the report and the final process states.
    pub fn run(self) -> (SimReport, Vec<P>) {
        self.run_bounded(DEFAULT_MAX_EVENTS)
    }

    /// Run with a utilization [`Timeline`] recorded at `bucket_width`
    /// virtual-second resolution.
    pub fn run_traced(self, bucket_width: f64) -> (SimReport, Vec<P>, Timeline) {
        let n = self.procs.len();
        let mut timeline = Timeline::new(n, bucket_width);
        let (report, procs) = self.run_inner(DEFAULT_MAX_EVENTS, Some(&mut timeline), None, None);
        (report.expect("no hook, cannot stop early"), procs, timeline)
    }

    /// [`Self::run`] with an explicit event budget; panics when exceeded
    /// (indicates a livelocked algorithm, never a legitimate run).
    pub fn run_bounded(self, max_events: u64) -> (SimReport, Vec<P>) {
        let (report, procs) = self.run_inner(max_events, None, None, None);
        (report.expect("no hook, cannot stop early"), procs)
    }

    /// Run with a periodic checkpoint hook: before executing the first event
    /// at or past each `interval` boundary of virtual time, `hook` receives a
    /// consistent [`SimState`] cut plus the process states. Returns `None`
    /// for the report if the hook answered [`CheckpointControl::Stop`]
    /// (abandoned mid-run).
    pub fn run_checkpointed(
        self,
        interval: f64,
        hook: &mut dyn FnMut(&SimState<M>, &[P]) -> CheckpointControl,
    ) -> (Option<SimReport>, Vec<P>) {
        self.run_inner(DEFAULT_MAX_EVENTS, None, None, Some((interval, hook)))
    }

    /// Resume from a [`SimState`] cut and run to completion. The processes
    /// passed to [`Simulation::new`] must already be restored to the same
    /// cut; no `Start` events are delivered.
    pub fn resume(self, state: SimState<M>) -> (SimReport, Vec<P>) {
        let (report, procs) = self.run_inner(DEFAULT_MAX_EVENTS, None, Some(state), None);
        (report.expect("no hook, cannot stop early"), procs)
    }

    /// Clone the scheduler state into a serializable cut.
    fn cut(
        queue: &BinaryHeap<Scheduled<M>>,
        clocks: &[f64],
        metrics: &[ProcMetrics],
        next_seq: u64,
        events: u64,
        dead: &[(usize, f64)],
        dropped_events: u64,
    ) -> SimState<M> {
        let mut pending: Vec<PendingEvent<M>> = queue
            .iter()
            .map(|s| PendingEvent {
                time: s.time,
                seq: s.seq,
                to: s.to,
                recv_cost: s.recv_cost,
                recv_bytes: s.recv_bytes,
                ev: s.ev.clone(),
            })
            .collect();
        pending.sort_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        SimState {
            clocks: clocks.to_vec(),
            metrics: metrics.to_vec(),
            next_seq,
            events,
            pending,
            dead: dead.to_vec(),
            dropped_events,
        }
    }

    fn run_inner(
        mut self,
        max_events: u64,
        mut trace: Option<&mut Timeline>,
        init: Option<SimState<M>>,
        mut ckpt: Option<CkptHook<'_, M, P>>,
    ) -> (Option<SimReport>, Vec<P>) {
        let n = self.procs.len();
        let mut clocks = vec![0.0f64; n];
        let mut metrics = vec![ProcMetrics::default(); n];
        let mut queue: BinaryHeap<Scheduled<M>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut stop = false;
        let mut events = 0u64;
        // Fail-stop bookkeeping: which ranks are dead, the applied deaths in
        // order, and how many events were silently dropped on their account.
        let mut dead = vec![false; n];
        let mut applied: Vec<(usize, f64)> = Vec::new();
        let mut dropped = 0u64;

        match init {
            Some(state) => {
                assert_eq!(state.clocks.len(), n, "resume state rank count mismatch");
                assert_eq!(state.metrics.len(), n, "resume state rank count mismatch");
                clocks = state.clocks;
                metrics = state.metrics;
                seq = state.next_seq;
                events = state.events;
                dropped = state.dropped_events;
                for &(rank, time) in &state.dead {
                    assert!(rank < n, "dead rank {rank} out of range");
                    dead[rank] = true;
                    applied.push((rank, time));
                }
                for p in state.pending {
                    assert!(p.seq < seq, "pending event from the future");
                    assert!(p.to < n, "pending event for unknown rank {}", p.to);
                    queue.push(Scheduled {
                        time: p.time,
                        seq: p.seq,
                        to: p.to,
                        recv_cost: p.recv_cost,
                        recv_bytes: p.recv_bytes,
                        ev: p.ev,
                    });
                }
            }
            None => {
                for rank in 0..n {
                    queue.push(Scheduled {
                        time: 0.0,
                        seq,
                        to: rank,
                        recv_cost: 0.0,
                        recv_bytes: 0,
                        ev: Event::Start,
                    });
                    seq += 1;
                }
                // Open-loop arrivals enter the queue up front (fresh runs
                // only — a resumed cut already carries the undelivered ones
                // in `pending`). They cost nothing to receive; any modelled
                // ingest cost is the receiving process's business.
                for (time, to, msg) in std::mem::take(&mut self.arrivals) {
                    queue.push(Scheduled {
                        time,
                        seq,
                        to,
                        recv_cost: 0.0,
                        recv_bytes: 0,
                        ev: Event::Message { from: to, msg },
                    });
                    seq += 1;
                }
            }
        }

        let mut next_boundary = ckpt.as_ref().map(|(interval, _)| {
            assert!(
                *interval > 0.0 && interval.is_finite(),
                "checkpoint interval must be positive and finite"
            );
            *interval
        });

        let mut death_idx = 0usize;

        loop {
            if stop {
                break;
            }
            let Some(top_time) = queue.peek().map(|s| s.time) else {
                break;
            };
            // Apply scheduled deaths due at or before the next event: the
            // rank is gone before that event can be delivered. Entries for
            // already-dead ranks (duplicates, or deaths restored from a
            // resume cut) are skipped idempotently.
            while death_idx < self.deaths.len() && self.deaths[death_idx].1 <= top_time {
                let (rank, time) = self.deaths[death_idx];
                death_idx += 1;
                if !dead[rank] {
                    dead[rank] = true;
                    applied.push((rank, time));
                }
            }
            // Checkpoint on boundary crossings: the cut is taken between
            // events, so the event about to execute is still in `pending`.
            if let (Some((interval, hook)), Some(boundary)) =
                (ckpt.as_mut(), next_boundary.as_mut())
            {
                if top_time >= *boundary {
                    while *boundary <= top_time {
                        *boundary += *interval;
                    }
                    let state =
                        Self::cut(&queue, &clocks, &metrics, seq, events, &applied, dropped);
                    if hook(&state, &self.procs) == CheckpointControl::Stop {
                        return (None, self.procs);
                    }
                }
            }
            let sch = queue.pop().expect("peeked above");
            // Fail-stop semantics: events to a dead rank vanish, and so do
            // in-flight messages *from* a dead rank (its sends die with it).
            // Nothing is generated in their place — survivors only notice
            // via their own timeouts.
            if dead[sch.to] || matches!(&sch.ev, Event::Message { from, .. } if dead[*from]) {
                dropped += 1;
                continue;
            }
            events += 1;
            assert!(
                events <= max_events,
                "event budget {max_events} exhausted — livelocked algorithm?"
            );
            let rank = sch.to;
            // The rank may be busy past the event's arrival: execute when
            // free. If it is free earlier, the gap was idle time.
            let exec_time = if clocks[rank] >= sch.time {
                clocks[rank]
            } else {
                let gap = sch.time - clocks[rank];
                if let Some(t) = trace.as_deref_mut() {
                    t.add(rank, ChargeKind::Idle, clocks[rank], gap);
                }
                metrics[rank].idle += gap;
                sch.time
            };
            let m = &mut metrics[rank];
            m.events += 1;
            let mut ctx = DesCtx {
                rank,
                n_ranks: n,
                exec_time,
                elapsed: 0.0,
                metrics: m,
                net: self.net,
                outbox: Vec::new(),
                wakes: Vec::new(),
                stop: &mut stop,
                trace: trace.as_deref_mut(),
            };
            // Charge the receive-side cost before handling.
            if sch.recv_cost > 0.0 {
                if let Some(t) = ctx.trace.as_deref_mut() {
                    t.add(rank, ChargeKind::Comm, exec_time, sch.recv_cost);
                }
                ctx.elapsed += sch.recv_cost;
                ctx.metrics.comm += sch.recv_cost;
            }
            if matches!(sch.ev, Event::Message { .. }) {
                ctx.metrics.msgs_recv += 1;
                ctx.metrics.bytes_recv += sch.recv_bytes;
            }
            self.procs[rank].on_event(sch.ev, &mut ctx);
            let elapsed = ctx.elapsed;
            let outbox = std::mem::take(&mut ctx.outbox);
            let wakes = std::mem::take(&mut ctx.wakes);
            clocks[rank] = exec_time + elapsed;
            for (delivery, to, bytes, msg) in outbox {
                queue.push(Scheduled {
                    time: delivery,
                    seq,
                    to,
                    recv_cost: self.net.recv_cost(bytes),
                    recv_bytes: bytes as u64,
                    ev: Event::Message { from: rank, msg },
                });
                seq += 1;
            }
            for (time, token) in wakes {
                queue.push(Scheduled {
                    time,
                    seq,
                    to: rank,
                    recv_cost: 0.0,
                    recv_bytes: 0,
                    ev: Event::Wake(token),
                });
                seq += 1;
            }
        }

        let wall = clocks.iter().copied().fold(0.0f64, f64::max);
        let report = SimReport {
            wall,
            events,
            ranks: metrics,
            rank_deaths: applied,
            dropped_events: dropped,
        };
        (Some(report), self.procs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: rank 0 sends a counter to rank 1 and back N times, then
    /// stops the world.
    struct PingPong {
        rounds: u32,
        log: Vec<(usize, u32)>,
    }

    impl Process<u32> for PingPong {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut dyn Context<u32>) {
            match ev {
                Event::Start => {
                    if ctx.rank() == 0 {
                        ctx.charge_compute(1e-3);
                        ctx.send(1, 0, 64);
                    }
                }
                Event::Message { from, msg } => {
                    self.log.push((ctx.rank(), msg));
                    if msg + 1 >= self.rounds {
                        ctx.stop_all();
                    } else {
                        ctx.charge_compute(1e-3);
                        ctx.send(from, msg + 1, 64);
                    }
                }
                Event::Wake(_) => {}
            }
        }
    }

    fn run_pingpong(rounds: u32) -> (SimReport, Vec<PingPong>) {
        let procs = (0..2).map(|_| PingPong { rounds, log: Vec::new() }).collect();
        Simulation::new(NetModel::paper_scale(), procs).run()
    }

    #[test]
    fn pingpong_alternates_and_time_advances() {
        let (report, procs) = run_pingpong(6);
        // Messages 0,2,4 land on rank 1; 1,3,5 on rank 0.
        assert_eq!(procs[1].log, vec![(1, 0), (1, 2), (1, 4)]);
        assert_eq!(procs[0].log, vec![(0, 1), (0, 3), (0, 5)]);
        // Six 1 ms compute charges plus messaging.
        assert!(report.wall > 5e-3, "wall = {}", report.wall);
        assert!(report.total(|m| m.comm) > 0.0);
        assert_eq!(report.ranks[0].msgs_sent + report.ranks[1].msgs_sent, 6);
    }

    #[test]
    fn deterministic_replay() {
        let (a, _) = run_pingpong(10);
        let (b, _) = run_pingpong(10);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.events, b.events);
        for (x, y) in a.ranks.iter().zip(b.ranks.iter()) {
            assert_eq!(x, y);
        }
    }

    /// A process that charges known amounts lets us verify the accounting.
    struct Charger;
    impl Process<()> for Charger {
        fn on_event(&mut self, ev: Event<()>, ctx: &mut dyn Context<()>) {
            if matches!(ev, Event::Start) {
                ctx.charge_compute(2.0);
                ctx.charge_io(1.0);
                assert!((ctx.now() - 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn charging_advances_clock_and_wall() {
        let (report, _) = Simulation::new(NetModel::free(), vec![Charger, Charger]).run();
        assert!((report.wall - 3.0).abs() < 1e-12);
        assert_eq!(report.ranks[0].compute, 2.0);
        assert_eq!(report.ranks[0].io, 1.0);
    }

    /// Wake-after fires at the requested virtual time.
    struct Waker {
        woke_at: f64,
    }
    impl Process<()> for Waker {
        fn on_event(&mut self, ev: Event<()>, ctx: &mut dyn Context<()>) {
            match ev {
                Event::Start => ctx.wake_after(5.0, 42),
                Event::Wake(t) => {
                    assert_eq!(t, 42);
                    self.woke_at = ctx.now();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wake_after_fires_on_time() {
        let (report, procs) =
            Simulation::new(NetModel::free(), vec![Waker { woke_at: -1.0 }]).run();
        assert!((procs[0].woke_at - 5.0).abs() < 1e-12);
        // Idle while waiting.
        assert!((report.ranks[0].idle - 5.0).abs() < 1e-12);
    }

    #[test]
    fn traced_runs_record_idle_gaps() {
        let (report, _, timeline) =
            Simulation::new(NetModel::free(), vec![Waker { woke_at: -1.0 }]).run_traced(0.5);
        // The 5 s wait shows up identically in the metrics and the timeline.
        assert!((report.ranks[0].idle - 5.0).abs() < 1e-12);
        let traced_idle = timeline.phase_total(0, ChargeKind::Idle);
        assert!((traced_idle - 5.0).abs() < 1e-9, "traced idle = {traced_idle}");
        // Idle is not busy: utilization stays zero.
        assert_eq!(timeline.utilization(0, 0), 0.0);
    }

    /// Causality: a message executes no earlier than its send completion +
    /// transit, and a busy receiver queues it.
    struct BusyReceiver {
        got_at: f64,
    }
    impl Process<u8> for BusyReceiver {
        fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
            match ev {
                Event::Start => {
                    if ctx.rank() == 0 {
                        ctx.send(1, 1, 0);
                    } else {
                        // Rank 1 is busy for 10 s from t = 0.
                        ctx.charge_compute(10.0);
                    }
                }
                Event::Message { .. } => {
                    self.got_at = ctx.now();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn busy_receiver_defers_message() {
        let procs = vec![BusyReceiver { got_at: -1.0 }, BusyReceiver { got_at: -1.0 }];
        let (_, procs) = Simulation::new(NetModel::free(), procs).run();
        // Message would arrive at ~0 but rank 1 is busy until t = 10.
        assert!(procs[1].got_at >= 10.0, "got at {}", procs[1].got_at);
    }

    /// An external arrival is an ordinary self-addressed message delivered
    /// at its scheduled time (or later if the rank is busy).
    #[derive(Clone)]
    struct Collector {
        got: Vec<(u8, f64)>,
    }
    impl Process<u8> for Collector {
        fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
            if let Event::Message { msg, .. } = ev {
                self.got.push((msg, ctx.now()));
            }
        }
    }

    #[test]
    fn arrivals_deliver_at_scheduled_times() {
        let procs = vec![Collector { got: vec![] }, Collector { got: vec![] }];
        let sim = Simulation::new(NetModel::free(), procs).with_arrivals(vec![
            (1.0, 0, 7),
            (2.5, 1, 8),
            (2.5, 0, 9),
        ]);
        let (report, procs) = sim.run();
        assert_eq!(procs[0].got, vec![(7, 1.0), (9, 2.5)]);
        assert_eq!(procs[1].got, vec![(8, 2.5)]);
        // Waiting for an arrival is idle time, and wall covers the stream.
        assert!((report.wall - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arrivals_survive_checkpoint_resume_without_duplication() {
        let procs = vec![Collector { got: vec![] }];
        let arrivals = vec![(1.0, 0, 1), (3.0, 0, 2), (5.0, 0, 3)];
        // Cut between the first and second arrival, then resume: the
        // undelivered arrivals ride the cut's pending queue and must not
        // be re-enqueued by the resumed simulation.
        let mut cut: Option<(SimState<u8>, Vec<Collector>)> = None;
        let sim = Simulation::new(NetModel::free(), procs).with_arrivals(arrivals.clone());
        let (report, _) = sim.run_checkpointed(2.0, &mut |state, procs| {
            cut = Some((state.clone(), procs.to_vec()));
            CheckpointControl::Stop
        });
        assert!(report.is_none(), "stopped at the first boundary");
        let (state, procs) = cut.expect("one cut taken");
        assert_eq!(procs[0].got, vec![(1, 1.0)], "only the first arrival before the cut");
        assert_eq!(state.pending.len(), 2, "two arrivals still pending");
        // Resuming with a fresh arrival schedule attached would duplicate;
        // the resume path ignores `with_arrivals` by design.
        let resumed = Simulation::new(NetModel::free(), procs).with_arrivals(arrivals);
        let (_, procs) = resumed.resume(state);
        assert_eq!(procs[0].got, vec![(1, 1.0), (2, 3.0), (3, 5.0)]);
    }

    /// Stop halts the world even with events pending.
    struct Flooder;
    impl Process<u8> for Flooder {
        fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
            match ev {
                Event::Start => ctx.send(ctx.rank(), 0, 0),
                Event::Message { msg, .. } => {
                    if msg > 10 {
                        ctx.stop_all();
                    } else {
                        ctx.send(ctx.rank(), msg.wrapping_add(1), 0);
                        ctx.send(ctx.rank(), msg.wrapping_add(1), 0);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn stop_all_halts_flood() {
        let (report, _) = Simulation::new(NetModel::free(), vec![Flooder]).run_bounded(1_000_000);
        assert!(report.events < 1_000_000);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn livelock_guard_panics() {
        struct Forever;
        impl Process<u8> for Forever {
            fn on_event(&mut self, _ev: Event<u8>, ctx: &mut dyn Context<u8>) {
                ctx.send(ctx.rank(), 0, 0);
            }
        }
        let _ = Simulation::new(NetModel::free(), vec![Forever]).run_bounded(1000);
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let (plain, plain_procs) = run_pingpong(10);
        let procs = (0..2).map(|_| PingPong { rounds: 10, log: Vec::new() }).collect();
        let mut cuts = 0u32;
        let (ckpt, ckpt_procs) = Simulation::new(NetModel::paper_scale(), procs).run_checkpointed(
            1e-3,
            &mut |state, procs: &[PingPong]| {
                cuts += 1;
                assert_eq!(state.clocks.len(), 2);
                assert_eq!(procs.len(), 2);
                assert!(!state.pending.is_empty(), "cut taken with an event still pending");
                // Pending is sorted by (time, seq).
                for w in state.pending.windows(2) {
                    assert!((w[0].time, w[0].seq) < (w[1].time, w[1].seq), "pending not sorted");
                }
                CheckpointControl::Continue
            },
        );
        let ckpt = ckpt.expect("hook never stopped");
        assert!(cuts > 0, "interval smaller than the run must fire the hook");
        assert_eq!(plain.wall.to_bits(), ckpt.wall.to_bits());
        assert_eq!(plain.events, ckpt.events);
        assert_eq!(plain.ranks, ckpt.ranks);
        assert_eq!(plain_procs[0].log, ckpt_procs[0].log);
        assert_eq!(plain_procs[1].log, ckpt_procs[1].log);
    }

    #[test]
    fn kill_at_checkpoint_then_resume_is_bit_identical() {
        let (reference, ref_procs) = run_pingpong(12);
        // Run until the second checkpoint, stop, and capture the cut.
        let procs = (0..2).map(|_| PingPong { rounds: 12, log: Vec::new() }).collect();
        let mut captured: Option<SimState<u32>> = None;
        let mut cuts = 0u32;
        let (stopped, killed_procs) = Simulation::new(NetModel::paper_scale(), procs)
            .run_checkpointed(1e-3, &mut |state, _procs: &[PingPong]| {
                cuts += 1;
                if cuts == 2 {
                    captured = Some(state.clone());
                    CheckpointControl::Stop
                } else {
                    CheckpointControl::Continue
                }
            });
        assert!(stopped.is_none(), "run must be abandoned at the second cut");
        let state = captured.expect("second checkpoint reached");
        assert!(state.events < reference.events, "cut must be strictly mid-run");
        // Resume: process state travels with the cut (here, the logs).
        let (resumed, resumed_procs) =
            Simulation::new(NetModel::paper_scale(), killed_procs).resume(state);
        assert_eq!(resumed.wall.to_bits(), reference.wall.to_bits());
        assert_eq!(resumed.events, reference.events);
        assert_eq!(resumed.ranks, reference.ranks);
        assert_eq!(resumed_procs[0].log, ref_procs[0].log);
        assert_eq!(resumed_procs[1].log, ref_procs[1].log);
    }

    #[test]
    fn wakes_survive_a_cut() {
        // A pending Wake must be serialized in the cut and fire after resume.
        let mut captured: Option<SimState<()>> = None;
        let (stopped, procs) = Simulation::new(NetModel::free(), vec![Waker { woke_at: -1.0 }])
            .run_checkpointed(1.0, &mut |state, _procs: &[Waker]| {
                captured = Some(state.clone());
                CheckpointControl::Stop
            });
        assert!(stopped.is_none());
        assert_eq!(procs[0].woke_at, -1.0, "wake must not have fired before the cut");
        let state = captured.unwrap();
        assert!(state.pending.iter().any(|p| matches!(p.ev, Event::Wake(42))));
        let (report, procs) = Simulation::new(NetModel::free(), procs).resume(state);
        assert!((procs[0].woke_at - 5.0).abs() < 1e-12);
        assert!((report.ranks[0].idle - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_checkpoint_interval_rejected() {
        let procs = vec![Charger];
        let _ = Simulation::new(NetModel::free(), procs)
            .run_checkpointed(0.0, &mut |_, _| CheckpointControl::Continue);
    }

    #[test]
    fn killed_rank_drops_pending_and_future_events() {
        // Kill rank 1 before the first message can be delivered: the
        // ping-pong dies silently after rank 0's one send.
        let procs = (0..2).map(|_| PingPong { rounds: 6, log: Vec::new() }).collect::<Vec<_>>();
        let (report, procs) =
            Simulation::new(NetModel::paper_scale(), procs).with_rank_deaths(vec![(1, 0.0)]).run();
        assert_eq!(report.rank_deaths, vec![(1, 0.0)]);
        assert!(procs[1].log.is_empty(), "dead rank must execute nothing");
        assert!(procs[0].log.is_empty(), "no reply can come back from a dead rank");
        // Rank 1's Start and the in-flight message both vanished.
        assert_eq!(report.dropped_events, 2, "dropped = {}", report.dropped_events);
        assert_eq!(report.ranks[1].events, 0);
        assert_eq!(report.ranks[1].msgs_recv, 0);
    }

    #[test]
    fn in_flight_message_from_dead_sender_is_lost() {
        // Rank 0 posts its send at t=1e-3 and is killed at that same instant,
        // while the message is still in transit; fail-stop means the send
        // dies with it (deaths apply before the next event is delivered).
        let procs = (0..2).map(|_| PingPong { rounds: 6, log: Vec::new() }).collect::<Vec<_>>();
        let (report, procs) =
            Simulation::new(NetModel::paper_scale(), procs).with_rank_deaths(vec![(0, 1e-3)]).run();
        assert!(procs[1].log.is_empty(), "message from a dead sender must be dropped");
        assert!(report.dropped_events >= 1);
        assert_eq!(report.ranks[1].msgs_recv, 0);
    }

    #[test]
    fn empty_death_schedule_is_bit_identical() {
        let (plain, plain_procs) = run_pingpong(10);
        let procs = (0..2).map(|_| PingPong { rounds: 10, log: Vec::new() }).collect::<Vec<_>>();
        let (fault, fault_procs) =
            Simulation::new(NetModel::paper_scale(), procs).with_rank_deaths(Vec::new()).run();
        assert_eq!(plain.wall.to_bits(), fault.wall.to_bits());
        assert_eq!(plain.events, fault.events);
        assert_eq!(plain.ranks, fault.ranks);
        assert_eq!(fault.dropped_events, 0);
        assert!(fault.rank_deaths.is_empty());
        assert_eq!(plain_procs[0].log, fault_procs[0].log);
    }

    #[test]
    fn death_after_the_run_ends_changes_nothing() {
        let (plain, _) = run_pingpong(10);
        let procs = (0..2).map(|_| PingPong { rounds: 10, log: Vec::new() }).collect::<Vec<_>>();
        let (fault, _) =
            Simulation::new(NetModel::paper_scale(), procs).with_rank_deaths(vec![(1, 1e9)]).run();
        // The death time is past the last event, so it is never applied.
        assert_eq!(plain.events, fault.events);
        assert_eq!(plain.ranks, fault.ranks);
        assert!(fault.rank_deaths.is_empty());
    }

    #[test]
    fn resume_after_death_is_bit_identical_and_death_not_reapplied() {
        // Reference: uninterrupted faulty run (kill rank 1 mid-stream).
        let deaths = vec![(1usize, 2.5e-3)];
        let procs = (0..2).map(|_| PingPong { rounds: 12, log: Vec::new() }).collect::<Vec<_>>();
        let (reference, ref_procs) =
            Simulation::new(NetModel::paper_scale(), procs).with_rank_deaths(deaths.clone()).run();
        assert_eq!(reference.rank_deaths, vec![(1, 2.5e-3)]);
        // Checkpointed variant: stop at a cut past the death, then resume.
        let procs = (0..2).map(|_| PingPong { rounds: 12, log: Vec::new() }).collect::<Vec<_>>();
        let mut captured: Option<SimState<u32>> = None;
        let (stopped, killed_procs) = Simulation::new(NetModel::paper_scale(), procs)
            .with_rank_deaths(deaths.clone())
            .run_checkpointed(3e-3, &mut |state, _procs: &[PingPong]| {
                captured = Some(state.clone());
                CheckpointControl::Stop
            });
        assert!(stopped.is_none());
        let state = captured.expect("a cut fired");
        assert_eq!(state.dead, vec![(1, 2.5e-3)], "cut must record the applied death");
        let (resumed, resumed_procs) = Simulation::new(NetModel::paper_scale(), killed_procs)
            .with_rank_deaths(deaths)
            .resume(state);
        assert_eq!(resumed.wall.to_bits(), reference.wall.to_bits());
        assert_eq!(resumed.events, reference.events);
        assert_eq!(resumed.ranks, reference.ranks);
        assert_eq!(resumed.rank_deaths, reference.rank_deaths);
        assert_eq!(resumed.dropped_events, reference.dropped_events);
        assert_eq!(resumed_procs[0].log, ref_procs[0].log);
        assert_eq!(resumed_procs[1].log, ref_procs[1].log);
    }

    #[test]
    #[should_panic(expected = "unknown rank")]
    fn death_for_unknown_rank_rejected() {
        let procs = vec![Charger];
        let _ = Simulation::new(NetModel::free(), procs).with_rank_deaths(vec![(7, 0.0)]);
    }

    #[test]
    fn sim_with_512_ranks_runs() {
        struct Noop;
        impl Process<u8> for Noop {
            fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
                if matches!(ev, Event::Start) {
                    ctx.charge_compute(1e-6 * (ctx.rank() as f64 + 1.0));
                }
            }
        }
        let procs = (0..512).map(|_| Noop).collect::<Vec<_>>();
        let (report, _) = Simulation::new(NetModel::paper_scale(), procs).run();
        assert_eq!(report.ranks.len(), 512);
        assert!((report.wall - 512e-6).abs() < 1e-12);
    }
}
