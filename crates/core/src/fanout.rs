//! One block's batch advance, fanned out across the host's cores and
//! committed in order.
//!
//! [`RankCore::advance_block`](crate::rank::RankCore::advance_block) splits a
//! block's parked list into batch-width chunks. Advancing a chunk is a pure
//! function of (chunk, block, decomposition, limits), so any thread may
//! compute any chunk. What touches the rank — the cache tick, the compute
//! charge, the counters, routing, the memory check — is the *commit*, and
//! the calling rank does it itself, in chunk order. Trajectories, virtual
//! times and counters are therefore those of the serial loop, whichever
//! thread computed what.
//!
//! [`fan_out`] yields the items' results in input order. While the caller
//! waits for one, it computes the next unclaimed item itself, and so does
//! any idle helper of one lazily started process-wide pool of
//! `available_parallelism() − 1` threads. Every rank of every run shares
//! that pool, so a threaded run's rank count never multiplies it. A
//! one-item list, or a one-core host, runs wholly on the calling thread and
//! starts no thread. Dropping the iterator early (the world stopped)
//! discards every item not yet yielded. A panic on a helper resurfaces on
//! the caller when it reaches that item.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// No work runs under these locks and every update under them is a single
/// slot or counter write, so a guard poisoned by an unrelated panic still
/// guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Work a helper can join: compute unclaimed items until none is left.
trait Help: Send + Sync {
    fn help(&self);
}

enum Slot<I, O> {
    Pending(I),
    /// Being computed, or already yielded.
    Claimed,
    Done(thread::Result<O>),
}

struct Items<I, O> {
    slots: Vec<Slot<I, O>>,
    /// The first unclaimed item: items are claimed in input order.
    next: usize,
}

impl<I, O> Items<I, O> {
    fn claim(&mut self) -> Option<(usize, I)> {
        let k = self.next;
        let slot = self.slots.get_mut(k)?;
        self.next += 1;
        match std::mem::replace(slot, Slot::Claimed) {
            Slot::Pending(item) => Some((k, item)),
            _ => unreachable!("every item from `next` on is pending"),
        }
    }
}

struct Job<I, O, F> {
    work: F,
    items: Mutex<Items<I, O>>,
    /// Signalled whenever a helper finishes an item.
    done: Condvar,
}

impl<I: Send, O: Send, F: Fn(I) -> O + Send + Sync> Help for Job<I, O, F> {
    fn help(&self) {
        loop {
            // Bound first, so the lock is released before the work runs.
            let claimed = lock(&self.items).claim();
            let Some((k, item)) = claimed else { return };
            let out = catch_unwind(AssertUnwindSafe(|| (self.work)(item)));
            lock(&self.items).slots[k] = Slot::Done(out);
            self.done.notify_all();
        }
    }
}

#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<Arc<dyn Help>>>,
    wake: Condvar,
}

impl Queue {
    fn serve(&self) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    jobs = self.wake.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.help();
        }
    }
}

/// Helper threads that join published jobs.
struct Pool {
    queue: Arc<Queue>,
    helpers: usize,
}

impl Pool {
    /// Start up to `helpers` threads; `None` if none started. The helpers
    /// live as long as the process and are never joined: a panic in their
    /// work is caught and handed to the caller that yields that item.
    fn start(helpers: usize) -> Option<Pool> {
        let queue = Arc::new(Queue::default());
        let helpers = (0..helpers)
            .filter(|i| {
                let q = Arc::clone(&queue);
                let name = format!("fanout-{i}");
                thread::Builder::new().name(name).spawn(move || q.serve()).is_ok()
            })
            .count();
        (helpers > 0).then_some(Pool { queue, helpers })
    }

    /// The process-wide pool, started on first use: one helper per core
    /// beyond the caller's own.
    fn global() -> Option<&'static Pool> {
        static GLOBAL: OnceLock<Option<Pool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cores = thread::available_parallelism().map_or(1, |n| n.get());
                Pool::start(cores - 1)
            })
            .as_ref()
    }

    /// Invite up to `wanted` helpers to join `job`.
    fn offer(&self, job: Arc<dyn Help>, wanted: usize) {
        let mut jobs = lock(&self.queue.jobs);
        for _ in 0..wanted.min(self.helpers) {
            jobs.push_back(Arc::clone(&job));
            self.queue.wake.notify_one();
        }
    }
}

/// `work` applied to every item, yielded in input order, computed by the
/// calling thread and the process-wide helpers.
pub(crate) fn fan_out<I, O, F>(items: Vec<I>, work: F) -> FanOut<I, O, F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(I) -> O + Send + Sync + 'static,
{
    let pool = if items.len() > 1 { Pool::global() } else { None };
    fan_out_on(pool, items, work)
}

fn fan_out_on<I, O, F>(pool: Option<&Pool>, items: Vec<I>, work: F) -> FanOut<I, O, F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(I) -> O + Send + Sync + 'static,
{
    let helpers_wanted = items.len().saturating_sub(1);
    let slots = items.into_iter().map(Slot::Pending).collect();
    let job =
        Arc::new(Job { work, items: Mutex::new(Items { slots, next: 0 }), done: Condvar::new() });
    if let Some(pool) = pool {
        pool.offer(job.clone(), helpers_wanted);
    }
    FanOut { job, next: 0 }
}

/// The results of [`fan_out`], in input order.
pub(crate) struct FanOut<I, O, F> {
    job: Arc<Job<I, O, F>>,
    /// The next item to yield.
    next: usize,
}

impl<I, O, F: Fn(I) -> O> Iterator for FanOut<I, O, F> {
    type Item = O;

    fn next(&mut self) -> Option<O> {
        let job = &*self.job;
        let k = self.next;
        let mut items = lock(&job.items);
        if k >= items.slots.len() {
            return None;
        }
        self.next += 1;
        loop {
            if matches!(items.slots[k], Slot::Done(_)) {
                let Slot::Done(out) = std::mem::replace(&mut items.slots[k], Slot::Claimed) else {
                    unreachable!("just matched")
                };
                drop(items);
                return Some(out.unwrap_or_else(|panic| resume_unwind(panic)));
            }
            match items.claim() {
                Some((j, item)) => {
                    drop(items);
                    let out = (job.work)(item);
                    items = lock(&job.items);
                    items.slots[j] = Slot::Done(Ok(out));
                }
                None => items = job.done.wait(items).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

impl<I, O, F> Drop for FanOut<I, O, F> {
    /// Discard every item not yet claimed; a helper mid-item finishes into
    /// a result nobody reads.
    fn drop(&mut self) {
        let mut items = lock(&self.job.items);
        let claimed = items.next;
        items.slots.truncate(claimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn on_helper() -> bool {
        thread::current().name().is_some_and(|n| n.starts_with("fanout-"))
    }

    /// Two items that meet at a barrier: neither finishes until both are
    /// running, so the caller and the one helper take one each.
    fn one_item_each(pool: &Pool) -> Vec<(u32, bool)> {
        let meet = Arc::new(Barrier::new(2));
        fan_out_on(Some(pool), vec![0, 1], move |i: u32| {
            meet.wait();
            (i, on_helper())
        })
        .collect()
    }

    #[test]
    fn yields_in_input_order_whoever_computes() {
        let pool = Pool::start(1).expect("the host starts a thread");
        let out = one_item_each(&pool);
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(out.iter().filter(|&&(_, helper)| helper).count(), 1, "{out:?}");
        let squares: Vec<u64> = fan_out_on(Some(&pool), (0..64u64).collect(), |i| i * i).collect();
        assert_eq!(squares, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_item_or_no_pool_runs_on_the_caller() {
        let helped = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&helped);
        let out: Vec<usize> = fan_out_on(None, (0..8).collect(), move |i| {
            h.fetch_add(usize::from(on_helper()), Ordering::SeqCst);
            i + 1
        })
        .collect();
        assert_eq!(out, (1..9).collect::<Vec<_>>());
        let h = Arc::clone(&helped);
        let one: Vec<usize> = fan_out(vec![7], move |i| {
            h.fetch_add(usize::from(on_helper()), Ordering::SeqCst);
            i
        })
        .collect();
        assert_eq!(one, vec![7]);
        assert_eq!(helped.load(Ordering::SeqCst), 0);
    }

    /// The helper's item panics after both items started; the panic
    /// reaches the caller instead of hanging it, and the helper survives to
    /// serve the next job.
    #[test]
    fn helper_panic_resurfaces_on_the_caller() {
        let pool = Pool::start(1).expect("the host starts a thread");
        let meet = Arc::new(Barrier::new(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out_on(Some(&pool), vec![0, 1], move |i: u32| {
                meet.wait();
                assert!(!on_helper(), "helper item {i}");
                i
            })
            .collect::<Vec<_>>()
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("helper item"), "{msg}");
        assert_eq!(one_item_each(&pool).len(), 2, "the helper still serves");
    }

    #[test]
    fn dropping_early_discards_unclaimed_items() {
        let computed = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&computed);
        let mut it = fan_out_on(None, (0..10).collect(), move |i: usize| {
            c.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(it.next(), Some(0));
        drop(it);
        assert_eq!(computed.load(Ordering::SeqCst), 1, "no pool: only the yielded item ran");
    }
}
