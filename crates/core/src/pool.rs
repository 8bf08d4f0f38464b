//! The bounded worker-pool substrate: fleet-scale ensembles without
//! fleet-scale threads.
//!
//! [`ThreadedExecutor`](crate::ThreadedExecutor) is the paper's
//! Ray.io-actor analogue — one OS thread per client — which stops
//! scaling at a few dozen clients. [`PooledExecutor`] multiplexes *any*
//! number of clients over a bounded pool (default:
//! [`std::thread::available_parallelism`] workers), so the 100–1000
//! client fleets of [`qdevice::catalog::fleet`] train with the thread
//! footprint of a laptop.
//!
//! ## Architecture
//!
//! * **Sharded run-queue** ([`RunQueue`]) — dispatched tasks land on
//!   the shard of their client (`client % workers`), so a client's jobs
//!   tend to stay on one worker (warm compiled-template and
//!   engine-scratch caches). Idle workers steal from the deepest
//!   foreign shard; the [`PoolTelemetry`] counters (`workers_spawned`,
//!   `queue_depth_max`, `tasks_stolen`) expose the pool's behaviour
//!   after a run. The queue is generic over its task type: it started
//!   as this executor's private scaffolding and now lives in
//!   [`qsim::parallel`] as the workspace-wide substrate under the
//!   multi-tenant [`crate::fleet`] runtime and the data-parallel
//!   engines too.
//! * **Clients behind mutexes** — the coordinator keeps at most one
//!   task per client in flight, so the per-client locks are never
//!   contended; they exist to let any worker execute any client's task.
//! * **Two absorption policies** — see below.
//!
//! ## Deterministic mode (default)
//!
//! With [`PoolConfig::deterministic`] set, the run is the
//! [`crate::fleet`] stepper on its pooled substrate, as a fleet of one
//! tenant: results are
//! absorbed in exactly the
//! [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) total order
//! — earliest virtual completion first, client id breaking ties — with
//! each absorb immediately re-dispatching the freed client, exactly as
//! Algorithm 1 does. The report is therefore **byte-identical** to the
//! discrete-event executor's (including the `eqc[n]` trainer label);
//! only wall-clock and the pool telemetry differ.
//!
//! Parallelism and exact ordering coexist through conservative
//! lookahead, the classic discrete-event trick: a task dispatched at
//! virtual time `t` on a device with queue model `q` cannot complete
//! before `t + 0.8·q.wait(t) + q.overhead` (0.8 is the jitter floor,
//! and execution time is strictly positive), so any event already in
//! the heap that precedes every in-flight task's bound is safe to
//! absorb without waiting. In the common regime — many devices with
//! comparable latencies — the heap always holds events below the
//! bounds, workers stay saturated, and the coordinator never blocks
//! except at the tail.
//!
//! ## Arrival mode
//!
//! With `deterministic(false)` results are absorbed in arrival order,
//! matching the [`ThreadedExecutor`](crate::ThreadedExecutor)'s
//! realistic-but-irreproducible semantics (per-client virtual-time
//! cursors, label `eqc-pooled[n]`).

use crate::client::{ClientNode, ClientTaskResult};
use crate::config::PoolConfig;
use crate::ensemble::EnsembleSession;
use crate::error::EqcError;
use crate::executor::Executor;
use crate::fleet::{drive_session, DriveOn};
use crate::master::Assignment;
use crate::report::{PoolTelemetry, TrainingReport};
use qdevice::SimTime;
use std::sync::{mpsc, Mutex};
use std::thread;

pub(crate) use qsim::parallel::{drain_tasks, RunQueue};

/// One dispatched task travelling through the arrival-mode run-queue.
struct PoolTask {
    client: usize,
    assignment: Assignment,
    submit: SimTime,
}

/// A finished task travelling back to the coordinator.
struct TaskDone {
    client: usize,
    result: ClientTaskResult,
    cycle: usize,
    dispatched_at_update: u64,
}

/// Worker-to-coordinator protocol.
enum WorkerMsg {
    Done(TaskDone),
    Panicked(usize),
}

/// A fourth [`Executor`]: a bounded worker pool with a sharded,
/// work-stealing run-queue (see the [module docs](self)).
///
/// ```
/// use eqc_core::{Ensemble, EqcConfig, PooledExecutor};
/// use vqa::QaoaProblem;
///
/// let problem = QaoaProblem::maxcut_ring4();
/// let ensemble = Ensemble::builder()
///     .device("belem")
///     .device("manila")
///     .config(EqcConfig::paper_qaoa().with_epochs(2).with_shots(128))
///     .build()?;
/// let pooled = PooledExecutor::new(); // deterministic by default
/// let a = ensemble.train_with(&pooled, &problem)?;
/// let b = ensemble.train(&problem)?; // discrete-event executor
/// assert_eq!(a, b, "deterministic pool replays the DES order exactly");
/// assert!(pooled.telemetry().expect("ran").workers_spawned <= 2);
/// # Ok::<(), eqc_core::EqcError>(())
/// ```
#[derive(Debug, Default)]
pub struct PooledExecutor {
    config: PoolConfig,
    telemetry: Mutex<Option<PoolTelemetry>>,
}

impl PooledExecutor {
    /// Creates the executor with [`PoolConfig::default`] (deterministic,
    /// one worker per hardware thread).
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// Creates the executor with an explicit configuration (validated
    /// when [`Executor::run`] is called).
    pub fn with_config(config: PoolConfig) -> Self {
        PooledExecutor {
            config,
            telemetry: Mutex::new(None),
        }
    }

    /// Overrides the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = Some(workers);
        self
    }

    /// Selects deterministic (discrete-event-identical) or arrival-order
    /// absorption (builder style).
    pub fn deterministic(mut self, on: bool) -> Self {
        self.config.deterministic = on;
        self
    }

    /// The pool counters of the most recent [`Executor::run`] on this
    /// executor, or `None` before the first run.
    pub fn telemetry(&self) -> Option<PoolTelemetry> {
        *self.telemetry.lock().expect("telemetry lock")
    }

    /// The deterministic path: a fleet of one tenant over the pooled
    /// substrate, byte-identical to the discrete-event executor.
    fn run_deterministic(
        &self,
        session: &mut EnsembleSession<'_>,
        workers: usize,
    ) -> Result<TrainingReport, EqcError> {
        let mut telemetry = None;
        let on = DriveOn::Pooled {
            workers,
            telemetry: &mut telemetry,
        };
        let report = drive_session(session, on);
        *self.telemetry.lock().expect("telemetry lock") = telemetry;
        report
    }

    /// The arrival-order path: [`ThreadedExecutor`] semantics over the
    /// bounded pool.
    ///
    /// [`ThreadedExecutor`]: crate::ThreadedExecutor
    fn run_arrival(
        &self,
        session: &mut EnsembleSession<'_>,
        workers: usize,
    ) -> Result<TrainingReport, EqcError> {
        let problem = session.problem();
        let cfg = session.config();
        let n = session.num_clients();

        let taken = session.take_clients();
        let clients: Vec<Mutex<ClientNode>> = taken.into_iter().map(Mutex::new).collect();
        let runq: RunQueue<PoolTask> = RunQueue::new(workers);
        let (result_tx, result_rx) = mpsc::channel::<WorkerMsg>();

        let outcome: Result<(), EqcError> = thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let result_tx = result_tx.clone();
                let (runq, clients) = (&runq, &clients);
                let shots = cfg.shots;
                handles.push(scope.spawn(move || {
                    drain_tasks(
                        w,
                        runq,
                        &result_tx,
                        |task: &PoolTask| {
                            let client = task.client;
                            let mut node = clients[client]
                                .lock()
                                .unwrap_or_else(|_| panic!("client {client} poisoned"));
                            node.run_task(
                                problem,
                                task.assignment.task,
                                &task.assignment.params,
                                shots,
                                task.submit,
                            )
                        },
                        |task, result| {
                            WorkerMsg::Done(TaskDone {
                                client: task.client,
                                result,
                                cycle: task.assignment.cycle,
                                dispatched_at_update: task.assignment.dispatched_at_update,
                            })
                        },
                        |task| WorkerMsg::Panicked(task.client),
                    )
                }));
            }
            drop(result_tx);

            let driven = drive_arrival(session, &runq, &result_rx, n);

            runq.close();
            let mut join_failure = None;
            for (w, h) in handles.into_iter().enumerate() {
                if h.join().is_err() {
                    join_failure = Some(EqcError::Internal(format!("pool worker {w} panicked")));
                }
            }
            driven.and(join_failure.map_or(Ok(()), Err))
        });

        // Every client comes back on every path — poisoned mutexes still
        // surrender their client — so an errored session keeps its fleet.
        session.put_clients(
            clients
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
                .collect(),
        );
        let (queue_depth_max, tasks_stolen) = runq.counters();
        *self.telemetry.lock().expect("telemetry lock") = Some(PoolTelemetry {
            workers_spawned: workers,
            queue_depth_max,
            tasks_stolen,
        });
        outcome?;

        session.finish(format!("eqc-pooled[{n}]"))
    }
}

impl Executor for PooledExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        self.config.validate()?;
        session.begin()?;
        let workers = self.config.resolved_workers(session.num_clients());
        if self.config.deterministic {
            self.run_deterministic(session, workers)
        } else {
            self.run_arrival(session, workers)
        }
    }
}

/// The arrival-order coordinator: absorb as results land, per-client
/// virtual-time cursors.
fn drive_arrival(
    session: &mut EnsembleSession<'_>,
    runq: &RunQueue<PoolTask>,
    result_rx: &mpsc::Receiver<WorkerMsg>,
    n: usize,
) -> Result<(), EqcError> {
    let problem = session.problem();
    let mut local_time = vec![SimTime::ZERO; n];
    let (_, master) = session.split_mut();
    // Prime every client, in scheduler-policy order.
    for client in master.prime_order()? {
        let assignment = master.next_assignment()?;
        runq.push(
            client,
            PoolTask {
                client,
                assignment,
                submit: SimTime::ZERO,
            },
        );
    }
    while !master.is_complete() {
        match result_rx.recv() {
            Ok(WorkerMsg::Done(done)) => {
                local_time[done.client] = done.result.completed;
                master.absorb(
                    done.client,
                    done.cycle,
                    done.dispatched_at_update,
                    &done.result,
                    problem,
                )?;
                if master.is_complete() {
                    break;
                }
                // Honor eviction/re-admission in the arrival-order
                // dispatch loop too.
                for client in master.dispatch_order(done.client)? {
                    let assignment = master.next_assignment()?;
                    runq.push(
                        client,
                        PoolTask {
                            client,
                            assignment,
                            submit: local_time[client],
                        },
                    );
                }
            }
            Ok(WorkerMsg::Panicked(client)) => {
                return Err(EqcError::Internal(format!(
                    "pool task for client {client} panicked"
                )));
            }
            Err(_) => return Err(EqcError::Internal("pool workers exited early".into())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EqcConfig;
    use crate::ensemble::Ensemble;
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
    fn deterministic_pool_matches_discrete_event_byte_for_byte() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila", "bogota"], 5);
        let des = ensemble.train(&problem).expect("trains");
        let pooled_exec = PooledExecutor::new().workers(3);
        let pooled = ensemble.train_with(&pooled_exec, &problem).expect("trains");
        assert_eq!(des, pooled, "structurally identical reports");
        assert_eq!(format!("{des:?}"), format!("{pooled:?}"), "byte-identical");
        let t = pooled_exec.telemetry().expect("ran");
        assert_eq!(t.workers_spawned, 3);
        assert!(t.queue_depth_max >= 1);
    }

    #[test]
    fn single_worker_pool_is_still_deterministic_and_identical() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila"], 4);
        let des = ensemble.train(&problem).expect("trains");
        let pooled = ensemble
            .train_with(&PooledExecutor::new().workers(1), &problem)
            .expect("trains");
        assert_eq!(des, pooled);
    }

    #[test]
    fn arrival_mode_trains_every_client() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila", "bogota"], 6);
        let exec = PooledExecutor::new().deterministic(false).workers(2);
        let report = ensemble.train_with(&exec, &problem).expect("trains");
        assert_eq!(report.epochs, 6);
        assert!(report.trainer.starts_with("eqc-pooled"));
        for c in &report.clients {
            assert!(c.tasks_completed > 0, "{} idle", c.device);
        }
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem"], 1);
        let err = ensemble
            .train_with(&PooledExecutor::new().workers(0), &problem)
            .unwrap_err();
        assert!(matches!(err, EqcError::InvalidConfig(_)), "{err:?}");
    }
}
