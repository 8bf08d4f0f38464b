//! Pluggable execution substrates for the EQC master loop.
//!
//! The [`Executor`] trait is the framework's extension axis: an executor
//! decides *where and in what order* the master's assignments run —
//! deterministic virtual time, real OS threads, or a synchronous
//! baseline — while [`MasterLoop`](crate::MasterLoop) owns the optimization semantics
//! (cyclic schedule, gathers, weighted ASGD, staleness). Adding a future
//! async / sharded / remote substrate is a new `impl Executor`, not a
//! new trainer.
//!
//! Ships with four implementations. The matrix that picks one:
//!
//! | Executor | Deterministic | Parallel | Scale (clients) |
//! |---|---|---|---|
//! | [`DiscreteEventExecutor`] | yes (byte-identical per seed) | no (one thread) | any, serially |
//! | [`ThreadedExecutor`] | no (arrival order) | yes | one OS thread **per client** — fine to a few dozen |
//! | [`PooledExecutor`] `deterministic(true)` | yes (byte-identical to DES) | yes (bounded pool) | 100–1000+ |
//! | [`PooledExecutor`] `deterministic(false)` | no (arrival order) | yes (bounded pool) | 100–1000+ |
//! | [`SequentialExecutor`] | yes | no (barrier per parameter) | baseline / ablation |
//!
//! * [`DiscreteEventExecutor`] — the default: a deterministic
//!   discrete-event loop over virtual completion times (reproducible
//!   per seed, used by every figure harness);
//! * [`ThreadedExecutor`] — one OS thread per client with channel-based
//!   task/result exchange (the paper's Ray.io analogue; arrival order is
//!   decided by the scheduler, so runs are realistic, not reproducible);
//! * [`PooledExecutor`] (see [`crate::pool`]) — any number of clients
//!   multiplexed over a bounded worker pool with sharded run-queues and
//!   work stealing; deterministic mode replays the discrete-event total
//!   order exactly, so fleet-scale ensembles (see
//!   [`qdevice::catalog::fleet`]) stay reproducible;
//! * [`SequentialExecutor`] — barrier-synchronized dispatch that
//!   subsumes the paper's single-machine baseline (one client: ordinary
//!   sequential SGD) and the synchronous-ensemble ablation (many
//!   clients: data-parallel SGD with a barrier per parameter).

use crate::ensemble::EnsembleSession;
use crate::error::EqcError;
use crate::fleet::{drive_session, DriveOn};
use crate::master::Assignment;
pub use crate::pool::PooledExecutor;
use crate::report::TrainingReport;
use qdevice::SimTime;
use std::cmp::Ordering;
use std::sync::mpsc;
use std::thread;

use crate::client::ClientTaskResult;

/// An execution substrate for an [`EnsembleSession`].
///
/// Implementors drive the session's [`MasterLoop`](crate::MasterLoop):
/// call [`EnsembleSession::begin`] once, pull assignments with
/// `next_assignment`, run them on clients, feed results back through
/// `absorb`, and assemble the report with [`EnsembleSession::finish`].
pub trait Executor {
    /// Drains the session into a training report.
    ///
    /// # Errors
    ///
    /// [`EqcError::SessionConsumed`] when the session already trained;
    /// [`EqcError::Internal`] if the substrate itself fails (e.g. a
    /// worker thread panics).
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError>;
}

/// A completed task waiting in the event queue, ordered by completion
/// time (earliest first). The same total order drives the
/// [`DiscreteEventExecutor`] heap and the [`PooledExecutor`]'s
/// deterministic absorption queue.
pub(crate) struct Event {
    pub(crate) completed: SimTime,
    pub(crate) client: usize,
    pub(crate) result: ClientTaskResult,
    pub(crate) cycle: usize,
    pub(crate) dispatched_at_update: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first. The
        // ordering is total (`total_cmp`, not `partial_cmp`) so a NaN
        // completion time cannot silently scramble the queue, and ties
        // break on client id for determinism.
        other
            .completed
            .as_secs()
            .total_cmp(&self.completed.as_secs())
            .then_with(|| other.client.cmp(&self.client))
    }
}

/// The default executor: Algorithm 1 over deterministic virtual time.
///
/// A discrete-event loop pops the earliest-finishing client, absorbs its
/// result, and immediately hands that client the next task in the cyclic
/// schedule. Same seed, same report — byte for byte.
///
/// Since the multi-tenant fleet landed, this is a thin wrapper: the
/// session rides the [`crate::fleet`] stepper as a fleet of one
/// tenant under the [`Unshared`](crate::policy::arbiter::Unshared)
/// arbiter, which degenerates to exactly the historical
/// prime/pop-earliest/absorb/re-dispatch loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscreteEventExecutor;

impl DiscreteEventExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        DiscreteEventExecutor
    }
}

impl Executor for DiscreteEventExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        session.begin()?;
        drive_session(session, DriveOn::Inline)
    }
}

/// A result returned by a client thread.
struct ThreadResult {
    client: usize,
    result: ClientTaskResult,
    cycle: usize,
    dispatched_at_update: u64,
}

/// One OS thread per client, `std::sync::mpsc` channels for the
/// task/result protocol — the paper's Ray.io-actor analogue.
///
/// Virtual device latencies still govern the *recorded* timeline, but
/// arrival order is decided by the operating-system scheduler, so runs
/// are realistic rather than reproducible. Use the
/// [`DiscreteEventExecutor`] for experiments that must replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedExecutor;

impl ThreadedExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        ThreadedExecutor
    }
}

impl Executor for ThreadedExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        session.begin()?;
        let problem = session.problem();
        let cfg = session.config();
        let n = session.num_clients();
        let mut workers = session.take_clients();

        let (result_tx, result_rx) = mpsc::channel::<ThreadResult>();
        let mut returned: Vec<Option<crate::client::ClientNode>> = (0..n).map(|_| None).collect();

        let outcome: Result<(), EqcError> = thread::scope(|scope| {
            let mut task_txs: Vec<mpsc::Sender<Assignment>> = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (idx, mut client) in workers.drain(..).enumerate() {
                let (tx, rx) = mpsc::channel::<Assignment>();
                task_txs.push(tx);
                let result_tx = result_tx.clone();
                handles.push(scope.spawn(move || {
                    // Each client keeps its own virtual-time cursor: jobs
                    // on a device serialize independently of other
                    // devices.
                    let mut local_time = SimTime::ZERO;
                    while let Ok(a) = rx.recv() {
                        let r = client.run_task(problem, a.task, &a.params, cfg.shots, local_time);
                        local_time = r.completed;
                        if result_tx
                            .send(ThreadResult {
                                client: idx,
                                result: r,
                                cycle: a.cycle,
                                dispatched_at_update: a.dispatched_at_update,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    client
                }));
            }
            drop(result_tx);

            // The master protocol runs in an inner closure so that a
            // failure (a client thread panicking or exiting early) still
            // falls through to the unconditional shutdown + join below:
            // every surviving client is recovered on every path, and no
            // handle is left unjoined for `thread::scope` to re-panic on.
            let mut drive = || -> Result<(), EqcError> {
                let (_, master) = session.split_mut();
                let send = |c: usize, a: Assignment| {
                    task_txs[c]
                        .send(a)
                        .map_err(|_| EqcError::Internal("client thread exited early".into()))
                };
                // Prime every client, in scheduler-policy order.
                for c in master.prime_order()? {
                    let a = master.next_assignment()?;
                    send(c, a)?;
                }
                while !master.is_complete() {
                    let tr = result_rx
                        .recv()
                        .map_err(|_| EqcError::Internal("all client threads exited".into()))?;
                    master.absorb(
                        tr.client,
                        tr.cycle,
                        tr.dispatched_at_update,
                        &tr.result,
                        problem,
                    )?;
                    if master.is_complete() {
                        break;
                    }
                    // The freed client (unless benched) plus any client
                    // re-admitted by this absorb goes back to work.
                    for c in master.dispatch_order(tr.client)? {
                        let a = master.next_assignment()?;
                        send(c, a)?;
                    }
                }
                Ok(())
            };
            let driven = drive();

            // Shut the clients down and take them back for reporting.
            drop(task_txs);
            let mut join_failure = None;
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(client) => returned[i] = Some(client),
                    Err(_) => {
                        join_failure =
                            Some(EqcError::Internal(format!("client thread {i} panicked")));
                    }
                }
            }
            driven.and(join_failure.map_or(Ok(()), Err))
        });

        // Hand back whatever clients were recovered before surfacing any
        // failure, so an errored session is not left permanently empty.
        session.put_clients(returned.into_iter().flatten().collect());
        outcome?;

        let label = format!("eqc-threaded[{n}]");
        session.finish(label)
    }
}

/// Barrier-synchronized dispatch: every parameter's slices fan out
/// round-robin across the fleet, a barrier waits for the slowest slice,
/// then the update applies.
///
/// With one client this is exactly the paper's per-machine baseline
/// (ordinary sequential SGD — submit every slice, wait, update, move
/// on); with several it is the staleness ablation's synchronous
/// data-parallel SGD, whose barriers eliminate staleness but cap
/// throughput at the slowest participating device.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialExecutor;

impl SequentialExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        SequentialExecutor
    }
}

impl Executor for SequentialExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        session.begin()?;
        let problem = session.problem();
        let cfg = session.config();
        let (clients, master) = session.split_mut();
        let n = clients.len();

        // Per-client virtual-time cursors plus the barrier front.
        let mut local: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut barrier = SimTime::ZERO;
        // Round-robin offset, reset each cycle so the client-to-slice
        // assignment repeats identically every epoch.
        let mut param_round = 0usize;
        let mut current_cycle = 0usize;
        // The active-client rotation, refreshed only when the health
        // policy changes membership — the steady state allocates
        // nothing per slice.
        let mut active: Vec<usize> = (0..n).collect();
        let mut membership = master.membership_generation();

        while !master.is_complete() {
            let group = master.next_group().ok_or(EqcError::EmptySchedule)?;
            if group.0 != current_cycle {
                current_cycle = group.0;
                param_round = 0;
            }
            let group_start = barrier;
            let mut k = 0usize;
            // Fan the group's slices round-robin across the *active*
            // fleet (the barrier model leaves no idle-client choice for
            // the scheduler policy, but eviction/re-admission is
            // honored: benched clients drop out of the rotation and
            // re-admitted ones rejoin on the next slice); each client
            // chains its own slices serially.
            while !master.is_complete() && master.next_group() == Some(group) {
                let a = master.next_assignment()?;
                if master.membership_generation() != membership {
                    membership = master.membership_generation();
                    active.clear();
                    active.extend((0..n).filter(|&c| master.is_active(c)));
                }
                let ci = active[(param_round + k) % active.len()];
                let submit = local[ci].max(group_start);
                let r = clients[ci].run_task(problem, a.task, &a.params, cfg.shots, submit);
                local[ci] = r.completed;
                barrier = barrier.max(r.completed);
                master.absorb(ci, a.cycle, a.dispatched_at_update, &r, problem)?;
                master.drain_readmitted(); // rejoin via the active filter
                k += 1;
            }
            param_round += 1;
        }

        let label = if n == 1 {
            let device = clients[0].device_name();
            if device == "ideal" {
                "ideal".to_string()
            } else {
                format!("single:{device}")
            }
        } else {
            format!("sync[{n}]")
        };
        session.finish(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EqcConfig;
    use crate::ensemble::Ensemble;
    use std::collections::BinaryHeap;
    use vqa::QaoaProblem;

    fn small_ensemble(names: &[&str], epochs: usize) -> Ensemble {
        Ensemble::builder()
            .devices(names.iter().copied())
            .device_seed(100)
            .config(EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(256))
            .build()
            .expect("catalog devices")
    }

    #[test]
    fn event_ordering_is_total_and_earliest_first() {
        fn ev(completed: f64, client: usize) -> Event {
            Event {
                completed: SimTime::from_secs(completed),
                client,
                result: ClientTaskResult {
                    task: vqa::GradientTask {
                        param: qcircuit::ParamId(0),
                        slice: vqa::TaskSlice::Full,
                    },
                    gradient: 0.0,
                    p_correct: 1.0,
                    submitted: SimTime::ZERO,
                    completed: SimTime::from_secs(completed),
                    circuits_run: 0,
                },
                cycle: 0,
                dispatched_at_update: 0,
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(ev(30.0, 0));
        heap.push(ev(10.0, 2));
        heap.push(ev(10.0, 1));
        heap.push(ev(20.0, 0));
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.completed.as_secs(), e.client))
            .collect();
        // Earliest first; equal times break toward the lower client id.
        assert_eq!(order, vec![(10.0, 1), (10.0, 2), (20.0, 0), (30.0, 0)]);
    }

    #[test]
    fn discrete_event_is_deterministic() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila"], 4);
        let a = ensemble.train(&problem).unwrap();
        let b = ensemble.train(&problem).unwrap();
        assert_eq!(a, b, "same seed must reproduce the full report");
    }

    #[test]
    fn threaded_executor_trains() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila"], 6);
        let report = ensemble
            .train_with(&ThreadedExecutor::new(), &problem)
            .unwrap();
        assert_eq!(report.epochs, 6);
        assert!(report.trainer.starts_with("eqc-threaded"));
        for c in &report.clients {
            assert!(c.tasks_completed > 0, "{} idle", c.device);
        }
    }

    #[test]
    fn sequential_single_client_matches_discrete_event() {
        // With one device there is no concurrency: both substrates must
        // walk the same schedule and land on identical parameters.
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["manila"], 5);
        let des = ensemble.train(&problem).unwrap();
        let seq = ensemble
            .train_with(&SequentialExecutor::new(), &problem)
            .unwrap();
        assert_eq!(des.final_params, seq.final_params);
        assert_eq!(des.total_hours, seq.total_hours);
    }

    #[test]
    fn sequential_many_clients_has_zero_staleness() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila", "bogota"], 6);
        let report = ensemble
            .train_with(&SequentialExecutor::new(), &problem)
            .unwrap();
        assert_eq!(report.max_staleness, 0);
        assert_eq!(report.trainer, "sync[3]");
        assert_eq!(report.epochs, 6);
    }
}
