//! A benchmark-owned [`Executor`] that replays the discrete-event drive
//! through the public `MasterLoop` / `ClientNode` calls, timing each
//! call into the master and client layers.
//!
//! It reproduces one tenant under the `Unshared` arbiter — the loop
//! `Ensemble::train` runs: prime every active client in scheduler
//! order, then repeatedly absorb the earliest completion (ties toward
//! the lower client id) and re-dispatch what the master frees. Its
//! report must equal `Ensemble::train`'s byte for byte; the benchmark
//! asserts that on every traced run.

use crate::trace::Span;
use eqc_core::{ClientTaskResult, EnsembleSession, EqcError, Executor, TrainingReport};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Master and client spans of the replayed drives, plus every
/// `run_task` latency for its percentiles.
#[derive(Debug, Default)]
pub struct ReplicaSpans {
    pub run_task: Span,
    pub absorb: Span,
    pub next_assignment: Span,
    /// Scheduler ordering of freed clients, the initial priming order
    /// included.
    pub dispatch_order: Span,
    /// Wall time of the whole drives.
    pub drive: Span,
    pub run_task_us: RefCell<Vec<f64>>,
}

impl ReplicaSpans {
    /// Drive wall time not covered by any master or client span.
    pub fn executor_self_s(&self) -> f64 {
        self.drive.busy_s() - self.children_s()
    }

    /// Busy time of the spans nested directly in the drive.
    pub fn children_s(&self) -> f64 {
        self.run_task.busy_s()
            + self.absorb.busy_s()
            + self.next_assignment.busy_s()
            + self.dispatch_order.busy_s()
    }
}

/// A completed task waiting to be absorbed, ordered earliest
/// completion first with ties toward the lower client id.
struct Pending {
    client: usize,
    cycle: usize,
    dispatched_at_update: u64,
    result: ClientTaskResult,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: invert so the earliest completion pops first.
        other
            .result
            .completed
            .as_secs()
            .total_cmp(&self.result.completed.as_secs())
            .then_with(|| other.client.cmp(&self.client))
    }
}

/// The discrete-event replica; see the module docs.
pub struct ReplicaExecutor<'s> {
    pub spans: &'s ReplicaSpans,
}

impl Executor for ReplicaExecutor<'_> {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        let spans = self.spans;
        let start = Instant::now();
        session.begin()?;
        let problem = session.problem();
        let shots = session.config().shots;
        let n = session.num_clients();
        let (clients, master) = session.split_mut();
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
        if !master.is_complete() {
            ready.extend(spans.dispatch_order.time(|| master.prime_order())?);
        }
        loop {
            // Unshared grants every ready client at once.
            while let Some(client) = ready.pop_front() {
                let a = spans.next_assignment.time(|| master.next_assignment())?;
                let submit = master.now();
                let t = Instant::now();
                let result = clients[client].run_task(problem, a.task, &a.params, shots, submit);
                let nanos = t.elapsed().as_nanos() as u64;
                spans.run_task.record(nanos);
                spans.run_task_us.borrow_mut().push(nanos as f64 * 1e-3);
                heap.push(Pending {
                    client,
                    cycle: a.cycle,
                    dispatched_at_update: a.dispatched_at_update,
                    result,
                });
            }
            if master.is_complete() {
                break;
            }
            let Some(ev) = heap.pop() else {
                return Err(EqcError::Internal(
                    "event queue drained before the epoch budget".into(),
                ));
            };
            spans.absorb.time(|| {
                master.absorb(
                    ev.client,
                    ev.cycle,
                    ev.dispatched_at_update,
                    &ev.result,
                    problem,
                )
            })?;
            if master.is_complete() {
                break;
            }
            ready.extend(
                spans
                    .dispatch_order
                    .time(|| master.dispatch_order(ev.client))?,
            );
        }
        spans.drive.record(start.elapsed().as_nanos() as u64);
        session.finish(format!("eqc[{n}]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqc_core::{Ensemble, EqcConfig, WeightBounds};
    use vqa::VqeProblem;

    #[test]
    fn replica_reproduces_ensemble_train_byte_for_byte() {
        let problem = VqeProblem::heisenberg_4q();
        let ensemble = Ensemble::builder()
            .devices(["belem", "manila"])
            .device_seed(3)
            .config(
                EqcConfig::paper_vqe()
                    .with_epochs(2)
                    .with_shots(256)
                    .with_weights(WeightBounds::new(0.5, 1.5).unwrap()),
            )
            .build()
            .unwrap();
        let reference = ensemble.train(&problem).unwrap();
        let spans = ReplicaSpans::default();
        let replayed = ensemble
            .train_with(&ReplicaExecutor { spans: &spans }, &problem)
            .unwrap();
        assert_eq!(format!("{reference:?}"), format!("{replayed:?}"));
        assert_eq!(reference.epochs, 2);
        assert!(spans.run_task.calls() >= spans.absorb.calls());
        assert_eq!(spans.run_task.calls(), spans.next_assignment.calls());
        assert!(spans.children_s() <= spans.drive.busy_s());
    }
}
