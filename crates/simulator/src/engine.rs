//! Deterministic discrete-event engine over an operation dependency DAG.
//!
//! Operations are registered with a fixed duration and a list of
//! dependencies (operations that must *finish* before this one starts).
//! The engine releases each operation as soon as its last dependency
//! completes — the "execute as soon as possible" schedule that interval
//! mappings admit (Section 3.3 of the paper: acyclic execution graph, at
//! most one incoming and one outgoing communication per processor).
//!
//! The run is a longest-path computation executed event by event with a
//! calendar queue, so the engine also records, per declared resource, the
//! total busy time (for utilization reports).

use cpo_model::error::ModelError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a registered operation.
pub type OpId = usize;

/// Identifier of a declared resource (for busy-time accounting only).
pub type ResourceId = usize;

struct Op {
    duration: f64,
    /// Number of dependencies not yet finished.
    pending: usize,
    /// Operations depending on this one.
    dependents: Vec<OpId>,
    /// Resource charged for the busy time (optional).
    resource: Option<ResourceId>,
    /// Earliest start so far (max of finished dependency end times).
    ready_at: f64,
    start: f64,
    end: f64,
    done: bool,
}

/// Heap entry ordered by (time, op id) for determinism.
struct Scheduled {
    time: f64,
    op: OpId,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.op == other.op
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on op id. `total_cmp` keeps
        // the ordering total even on contaminated inputs — [`Engine::run`]
        // rejects those with a typed error before any event is popped.
        other.time.total_cmp(&self.time).then(other.op.cmp(&self.op))
    }
}

/// The discrete-event engine.
#[derive(Default)]
pub struct Engine {
    ops: Vec<Op>,
    resources: Vec<f64>, // busy time per resource
}

impl Engine {
    /// Fresh engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Declare a resource for busy-time accounting; returns its id.
    pub fn add_resource(&mut self) -> ResourceId {
        self.resources.push(0.0);
        self.resources.len() - 1
    }

    /// Register an operation with a duration, an optional resource and its
    /// dependencies. Dependencies must already be registered (DAG built in
    /// topological order of declaration).
    pub fn add_op(&mut self, duration: f64, resource: Option<ResourceId>, deps: &[OpId]) -> OpId {
        // NaN and +∞ are deferred to [`Engine::run`], which reports them
        // as a typed [`ModelError::NonFiniteData`] instead of panicking.
        // (`>= || NaN` keeps NaN flowing to the typed check in `run`.)
        assert!(duration >= 0.0 || duration.is_nan(), "operation durations must be non-negative");
        let id = self.ops.len();
        let mut pending = 0;
        for &d in deps {
            assert!(d < id, "dependencies must be declared before dependents");
            pending += 1;
        }
        self.ops.push(Op {
            duration,
            pending,
            dependents: Vec::new(),
            resource,
            ready_at: 0.0,
            start: f64::NAN,
            end: f64::NAN,
            done: false,
        });
        for &d in deps {
            self.ops[d].dependents.push(id);
        }
        id
    }

    /// Run the simulation to completion; returns the makespan.
    ///
    /// Returns [`ModelError::NonFiniteData`] when any registered duration
    /// is NaN or infinite (e.g. NaN-contaminated stage data that slipped
    /// past model validation) — the same convention as
    /// `DpScratch::period_partition` in `cpo_core` — instead of panicking
    /// mid-run on an unordered event time.
    ///
    /// Panics if the dependency graph is cyclic (some operation never
    /// becomes ready) — impossible for graphs built by
    /// [`crate::pipeline::simulate`].
    pub fn run(&mut self) -> Result<f64, ModelError> {
        if self.ops.iter().any(|op| !op.duration.is_finite()) {
            return Err(ModelError::NonFiniteData { what: "simulator operation durations" });
        }
        let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
        // Seed with operations that have no pending dependencies.
        for (id, op) in self.ops.iter().enumerate() {
            if op.pending == 0 {
                heap.push(Scheduled { time: op.ready_at + op.duration, op: id });
            }
        }
        let mut completed = 0usize;
        let mut makespan = 0.0f64;
        while let Some(Scheduled { time, op: id }) = heap.pop() {
            if self.ops[id].done {
                continue;
            }
            self.ops[id].done = true;
            self.ops[id].start = time - self.ops[id].duration;
            self.ops[id].end = time;
            if let Some(r) = self.ops[id].resource {
                self.resources[r] += self.ops[id].duration;
            }
            makespan = makespan.max(time);
            completed += 1;
            let dependents = std::mem::take(&mut self.ops[id].dependents);
            for dep in &dependents {
                let op = &mut self.ops[*dep];
                op.ready_at = op.ready_at.max(time);
                op.pending -= 1;
                if op.pending == 0 {
                    heap.push(Scheduled { time: op.ready_at + op.duration, op: *dep });
                }
            }
            self.ops[id].dependents = dependents;
        }
        assert_eq!(completed, self.ops.len(), "dependency graph must be acyclic and connected to sources");
        Ok(makespan)
    }

    /// End time of an operation (NaN before [`run`](Engine::run)).
    pub fn end_of(&self, op: OpId) -> f64 {
        self.ops[op].end
    }

    /// Start time of an operation.
    pub fn start_of(&self, op: OpId) -> f64 {
        self.ops[op].start
    }

    /// Busy time accumulated on a resource.
    pub fn busy(&self, r: ResourceId) -> f64 {
        self.resources[r]
    }

    /// Number of registered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operation is registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_sequential() {
        let mut e = Engine::new();
        let a = e.add_op(2.0, None, &[]);
        let b = e.add_op(3.0, None, &[a]);
        let c = e.add_op(1.0, None, &[b]);
        assert_eq!(e.run().unwrap(), 6.0);
        assert_eq!(e.end_of(a), 2.0);
        assert_eq!(e.start_of(b), 2.0);
        assert_eq!(e.end_of(c), 6.0);
    }

    #[test]
    fn diamond_takes_longest_path() {
        let mut e = Engine::new();
        let s = e.add_op(1.0, None, &[]);
        let l = e.add_op(5.0, None, &[s]);
        let r = e.add_op(2.0, None, &[s]);
        let j = e.add_op(1.0, None, &[l, r]);
        assert_eq!(e.run().unwrap(), 7.0);
        assert_eq!(e.start_of(j), 6.0);
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        let mut e = Engine::new();
        let a = e.add_op(4.0, None, &[]);
        let b = e.add_op(2.0, None, &[]);
        assert_eq!(e.run().unwrap(), 4.0);
        assert_eq!(e.start_of(a), 0.0);
        assert_eq!(e.start_of(b), 0.0);
    }

    #[test]
    fn resource_busy_time_accumulates() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_op(2.0, Some(r), &[]);
        let _b = e.add_op(3.0, Some(r), &[a]);
        e.run().unwrap();
        assert_eq!(e.busy(r), 5.0);
    }

    #[test]
    fn zero_duration_ops_are_fine() {
        let mut e = Engine::new();
        let a = e.add_op(0.0, None, &[]);
        let b = e.add_op(0.0, None, &[a]);
        assert_eq!(e.run().unwrap(), 0.0);
        assert_eq!(e.end_of(b), 0.0);
    }

    #[test]
    #[should_panic(expected = "declared before dependents")]
    fn forward_dependency_rejected() {
        let mut e = Engine::new();
        let _ = e.add_op(1.0, None, &[3]);
    }

    #[test]
    fn nan_duration_is_a_typed_error_not_a_panic() {
        let mut e = Engine::new();
        let a = e.add_op(1.0, None, &[]);
        let _ = e.add_op(f64::NAN, None, &[a]);
        assert_eq!(
            e.run(),
            Err(ModelError::NonFiniteData { what: "simulator operation durations" })
        );
    }

    #[test]
    fn infinite_duration_is_a_typed_error_too() {
        let mut e = Engine::new();
        let _ = e.add_op(f64::INFINITY, None, &[]);
        assert!(matches!(e.run(), Err(ModelError::NonFiniteData { .. })));
    }

    #[test]
    fn determinism_under_ties() {
        // Two identical runs produce identical schedules.
        let build = || {
            let mut e = Engine::new();
            let a = e.add_op(1.0, None, &[]);
            let b = e.add_op(1.0, None, &[]);
            let c = e.add_op(1.0, None, &[a, b]);
            e.run().unwrap();
            (e.start_of(a), e.start_of(b), e.start_of(c))
        };
        assert_eq!(build(), build());
    }
}
