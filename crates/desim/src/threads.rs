//! Real-thread runtime: the same [`Process`] code on OS threads and
//! crossbeam channels.
//!
//! Used to validate the algorithms under genuine concurrency and to measure
//! real wall-clock numbers at laptop scale. Unlike the simulation, charging
//! compute/I-O only updates metrics — the work itself already took real
//! time — and `now()` reads a monotonic clock.

use crate::event::Event;
use crate::metrics::{ProcMetrics, SimReport};
use crate::net::NetModel;
use crate::process::{Context, Process};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

enum Mail<M> {
    Msg { from: usize, bytes: usize, msg: M },
    Stop,
}

struct ThreadCtx<'a, M> {
    rank: usize,
    n_ranks: usize,
    start: Instant,
    metrics: &'a mut ProcMetrics,
    senders: &'a [Sender<Mail<M>>],
    wakes: &'a mut BinaryHeap<std::cmp::Reverse<(u128, u64)>>,
    stop: &'a AtomicBool,
}

impl<M> Context<M> for ThreadCtx<'_, M> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn charge_compute(&mut self, secs: f64) {
        self.metrics.compute += secs;
    }

    fn charge_io(&mut self, secs: f64) {
        self.metrics.io += secs;
    }

    fn send(&mut self, to: usize, msg: M, bytes: usize) {
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += bytes as u64;
        // Channel send; a dropped receiver (stopped run) is fine.
        let _ = self.senders[to].send(Mail::Msg { from: self.rank, bytes, msg });
    }

    fn wake_after(&mut self, delay: f64, token: u64) {
        let deadline = self.start.elapsed() + Duration::from_secs_f64(delay.max(0.0));
        self.wakes.push(std::cmp::Reverse((deadline.as_nanos(), token)));
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in self.senders {
            let _ = s.send(Mail::Stop);
        }
    }
}

/// Runs processes on real threads. A process that will receive no further
/// events should return `true` from [`ThreadRuntime::run_until_finished`]'s
/// `finished` callback so its thread can retire; otherwise the run ends when
/// some process calls `stop_all` or the timeout expires.
pub struct ThreadRuntime<M, P> {
    net: NetModel,
    procs: Vec<P>,
    _marker: std::marker::PhantomData<M>,
}

impl<M: Send, P: Process<M> + Send> ThreadRuntime<M, P> {
    pub fn new(net: NetModel, procs: Vec<P>) -> Self {
        assert!(!procs.is_empty(), "runtime needs at least one rank");
        ThreadRuntime { net, procs, _marker: std::marker::PhantomData }
    }

    /// Run until `stop_all` or `timeout`. `finished(proc)` lets a rank
    /// retire when it is done and expects no further messages.
    pub fn run_until_finished(
        self,
        timeout: Duration,
        finished: impl Fn(&P) -> bool + Sync,
    ) -> (SimReport, Vec<P>) {
        let n = self.procs.len();
        let net = self.net;
        type Channels<M> = (Vec<Sender<Mail<M>>>, Vec<Receiver<Mail<M>>>);
        let (senders, receivers): Channels<M> = (0..n).map(|_| unbounded()).unzip();
        let stop = AtomicBool::new(false);
        let retired = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = start + timeout;
        let finished = &finished;
        let stop_ref = &stop;
        let retired_ref = &retired;
        let senders_ref = &senders;

        let mut results: Vec<Option<(P, ProcMetrics)>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .procs
                .into_iter()
                .zip(receivers)
                .enumerate()
                .map(|(rank, (mut proc, rx))| {
                    scope.spawn(move || {
                        let mut metrics = ProcMetrics::default();
                        let mut wakes: BinaryHeap<std::cmp::Reverse<(u128, u64)>> =
                            BinaryHeap::new();
                        // `extra_comm` is the model receive cost of the
                        // message that triggered the event (0 otherwise).
                        let handle = |proc: &mut P,
                                      metrics: &mut ProcMetrics,
                                      wakes: &mut BinaryHeap<std::cmp::Reverse<(u128, u64)>>,
                                      ev: Event<M>,
                                      extra_comm: f64| {
                            metrics.events += 1;
                            metrics.comm += extra_comm;
                            let mut ctx = ThreadCtx {
                                rank,
                                n_ranks: n,
                                start,
                                metrics,
                                senders: senders_ref,
                                wakes,
                                stop: stop_ref,
                            };
                            proc.on_event(ev, &mut ctx);
                        };
                        handle(&mut proc, &mut metrics, &mut wakes, Event::Start, 0.0);
                        let mut has_retired = false;
                        loop {
                            if stop_ref.load(Ordering::SeqCst) || Instant::now() > deadline {
                                break;
                            }
                            if !has_retired && finished(&proc) && wakes.is_empty() {
                                has_retired = true;
                                if retired_ref.fetch_add(1, Ordering::SeqCst) + 1 == n {
                                    stop_ref.store(true, Ordering::SeqCst);
                                    for s in senders_ref {
                                        let _ = s.send(Mail::Stop);
                                    }
                                    break;
                                }
                            }
                            // Fire due wakes.
                            let now_ns = start.elapsed().as_nanos();
                            if let Some(&std::cmp::Reverse((t, token))) = wakes.peek() {
                                if t <= now_ns {
                                    wakes.pop();
                                    handle(
                                        &mut proc,
                                        &mut metrics,
                                        &mut wakes,
                                        Event::Wake(token),
                                        0.0,
                                    );
                                    continue;
                                }
                            }
                            let wait = wakes
                                .peek()
                                .map(|&std::cmp::Reverse((t, _))| {
                                    Duration::from_nanos((t - now_ns).min(u64::MAX as u128) as u64)
                                })
                                .unwrap_or(Duration::from_millis(5));
                            match rx.recv_timeout(wait.min(Duration::from_millis(50))) {
                                Ok(Mail::Msg { from, bytes, msg }) => {
                                    metrics.msgs_recv += 1;
                                    metrics.bytes_recv += bytes as u64;
                                    // The model's receive cost keeps
                                    // thread-mode comm totals comparable.
                                    handle(
                                        &mut proc,
                                        &mut metrics,
                                        &mut wakes,
                                        Event::Message { from, msg },
                                        net.recv_cost(bytes),
                                    );
                                }
                                Ok(Mail::Stop) => break,
                                Err(RecvTimeoutError::Timeout) => {}
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        (proc, metrics)
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank thread panicked"));
            }
        });

        let wall = start.elapsed().as_secs_f64();
        let mut procs = Vec::with_capacity(n);
        let mut ranks = Vec::with_capacity(n);
        let mut events = 0;
        for r in results {
            let (p, m) = r.expect("every rank joined");
            events += m.events;
            procs.push(p);
            ranks.push(m);
        }
        (SimReport { wall, events, ranks, rank_deaths: Vec::new(), dropped_events: 0 }, procs)
    }

    /// Run until some process calls `stop_all` (5-minute safety timeout).
    pub fn run(self) -> (SimReport, Vec<P>) {
        self.run_until_finished(Duration::from_secs(300), |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PingPong {
        rounds: u32,
        seen: u32,
    }

    impl Process<u32> for PingPong {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut dyn Context<u32>) {
            match ev {
                Event::Start => {
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, 64);
                    }
                }
                Event::Message { from, msg } => {
                    self.seen += 1;
                    if msg + 1 >= self.rounds {
                        ctx.stop_all();
                    } else {
                        ctx.send(from, msg + 1, 64);
                    }
                }
                Event::Wake(_) => {}
            }
        }
    }

    #[test]
    fn pingpong_on_threads() {
        let procs = (0..2).map(|_| PingPong { rounds: 10, seen: 0 }).collect();
        let (report, procs) = ThreadRuntime::new(NetModel::paper_scale(), procs).run();
        assert_eq!(procs[0].seen + procs[1].seen, 10);
        assert_eq!(report.ranks[0].msgs_sent + report.ranks[1].msgs_sent, 10);
        assert!(report.wall > 0.0);
    }

    struct Retiree {
        work_done: bool,
    }

    impl Process<()> for Retiree {
        fn on_event(&mut self, ev: Event<()>, ctx: &mut dyn Context<()>) {
            if matches!(ev, Event::Start) {
                ctx.charge_compute(0.5e-3);
                self.work_done = true;
            }
        }
    }

    #[test]
    fn all_finished_ends_run() {
        let procs = (0..4).map(|_| Retiree { work_done: false }).collect::<Vec<_>>();
        let t0 = Instant::now();
        let (report, procs) = ThreadRuntime::new(NetModel::free(), procs)
            .run_until_finished(Duration::from_secs(30), |p: &Retiree| p.work_done);
        assert!(procs.iter().all(|p| p.work_done));
        assert!(t0.elapsed() < Duration::from_secs(5), "retirement should be prompt");
        assert_eq!(report.ranks.len(), 4);
        assert!(report.total(|m| m.compute) > 0.0);
    }

    struct WakeOnce {
        woke: bool,
    }

    impl Process<()> for WakeOnce {
        fn on_event(&mut self, ev: Event<()>, ctx: &mut dyn Context<()>) {
            match ev {
                Event::Start => ctx.wake_after(10e-3, 7),
                Event::Wake(7) => {
                    self.woke = true;
                    ctx.stop_all();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wake_fires_on_threads() {
        let (_, procs) = ThreadRuntime::new(NetModel::free(), vec![WakeOnce { woke: false }]).run();
        assert!(procs[0].woke);
    }

    #[test]
    fn timeout_is_a_backstop() {
        struct Silent;
        impl Process<()> for Silent {
            fn on_event(&mut self, _: Event<()>, _: &mut dyn Context<()>) {}
        }
        let t0 = Instant::now();
        let (_, _) = ThreadRuntime::new(NetModel::free(), vec![Silent])
            .run_until_finished(Duration::from_millis(100), |_| false);
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(90) && dt < Duration::from_secs(5));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::event::Event;
    use crate::process::{Context, Process};

    /// Self-sends work on the thread runtime and comm metrics are recorded
    /// with the model's receive cost.
    struct SelfSender {
        got: bool,
    }

    impl Process<u8> for SelfSender {
        fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
            match ev {
                Event::Start => ctx.send(ctx.rank(), 7, 1024),
                Event::Message { from, msg } => {
                    assert_eq!(from, ctx.rank());
                    assert_eq!(msg, 7);
                    self.got = true;
                    ctx.stop_all();
                }
                Event::Wake(_) => {}
            }
        }
    }

    #[test]
    fn self_send_delivers_on_threads() {
        let (report, procs) =
            ThreadRuntime::new(NetModel::paper_scale(), vec![SelfSender { got: false }]).run();
        assert!(procs[0].got);
        assert_eq!(report.ranks[0].msgs_sent, 1);
        assert_eq!(report.ranks[0].msgs_recv, 1);
        assert_eq!(report.ranks[0].bytes_recv, 1024);
        assert!(report.ranks[0].comm > 0.0, "recv cost must be accounted");
    }

    /// A storm of messages from many ranks to one sink all arrive.
    struct Sink {
        expect: u64,
        seen: u64,
    }

    impl Process<u8> for Sink {
        fn on_event(&mut self, ev: Event<u8>, ctx: &mut dyn Context<u8>) {
            match ev {
                Event::Start => {
                    if ctx.rank() != 0 {
                        for _ in 0..50 {
                            ctx.send(0, 1, 16);
                        }
                    }
                }
                Event::Message { .. } => {
                    self.seen += 1;
                    if self.seen == self.expect {
                        ctx.stop_all();
                    }
                }
                Event::Wake(_) => {}
            }
        }
    }

    #[test]
    fn fan_in_storm_is_lossless() {
        let n = 6;
        let expect = (n as u64 - 1) * 50;
        let procs: Vec<Sink> = (0..n).map(|_| Sink { expect, seen: 0 }).collect();
        let (report, procs) = ThreadRuntime::new(NetModel::free(), procs).run();
        assert_eq!(procs[0].seen, expect);
        let sent: u64 = report.ranks.iter().map(|m| m.msgs_sent).sum();
        assert_eq!(sent, expect);
    }
}
