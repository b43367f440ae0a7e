//! Bit-sliced Monte-Carlo execution: up to 64 replications per run.
//!
//! [`Simulation::run_bitsliced`] evaluates the compiled
//! [`RoundProgram`](logrel_core::roundprog::RoundProgram) for up to 64
//! *independent* replications ("lanes") in one pass. Boolean
//! per-replica state — liveness, broadcast delivery, warm-up, exclusion,
//! vote delivery — is packed into `u64` lane masks, and communicator
//! values are kept as *value classes*: disjoint lane masks per distinct
//! reliable value ([`LaneClasses`]). Because independent replications of
//! one system overwhelmingly agree on the data flow (they differ only
//! where a fault fired), a round's work collapses to a handful of classes
//! instead of 64 scalar evaluations.
//!
//! # Lane semantics
//!
//! Lane `i` replays scalar replication `i` *exactly*: it owns a private
//! RNG seeded with lane `i`'s seed, plus its own fault injector,
//! environment, supervisor and metrics sink ([`LaneContext`]). At every
//! site where the scalar kernel ([`Simulation::run_observed`]) consumes a
//! draw or calls a hook, the bit-sliced kernel loops over the lanes and
//! performs the same call on the lane's own context, in the same order —
//! so each lane's RNG stream, trace, metrics and supervisor interactions
//! are bit-identical to a scalar run of the same seed.
//! [`BitslicedOutput::extract_lane`] recovers the scalar [`SimOutput`].
//!
//! # Shared behaviors — purity contract
//!
//! All lanes share one [`BehaviorMap`]: task behaviors must be pure
//! functions of their inputs. The kernel invokes a behavior once per
//! *input-class* (not once per lane), so a behavior with internal state
//! would observe a different call sequence than under scalar execution.
//!
//! # Corruption and the fast path
//!
//! When no lane's injector can corrupt outputs
//! ([`FaultInjector::corrupts`] is `false` for every lane), all delivering
//! replicas of a lane hold the identical voted-in value, so voting
//! reduces to mask intersection and the per-replica output buffers are
//! never materialized. A corrupting injector on any lane switches the
//! whole run to the slow path, which stores per-(replica, lane) output
//! rows and votes each lane with [`vote_into`](crate::vote_into) — still bit-identical,
//! just without the class compression on the vote.

use crate::behavior::BehaviorMap;
use crate::environment::Environment;
use crate::fault::FaultInjector;
use crate::kernel::{
    drop_counter, task_audiences, vote_counter, warm_after_rejoin, SimOutput, Simulation,
    TaskStats,
};
use crate::monitor::{NoSupervisor, Supervisor};
use crate::trace::Trace;
use logrel_core::roundprog::UpdateOp;
use logrel_core::{CommunicatorId, FailureModel, HostId, Specification, TaskId, Tick, Value};
use logrel_obs::{names, DropReason, MetricsSink, NoopSink, ObsEvent, VoteOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem;

/// A partition of the lane set by communicator value.
///
/// Invariants: the per-class masks are pairwise disjoint, every stored
/// value is reliable, and no mask is zero. Lanes outside the union of the
/// masks hold ⊥ ([`Value::Unreliable`]) — ⊥ is represented by *absence*,
/// which keeps the common all-reliable and all-⊥ cases at one and zero
/// classes respectively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneClasses {
    classes: Vec<(Value, u64)>,
}

impl LaneClasses {
    fn clear(&mut self) {
        self.classes.clear();
    }

    /// Adds `mask`'s lanes with value `v`, coalescing with an existing
    /// equal-valued class. ⊥ values and empty masks are dropped (⊥ is
    /// absence). The caller must keep masks disjoint from existing
    /// classes.
    fn push(&mut self, v: Value, mask: u64) {
        if mask == 0 || !v.is_reliable() {
            return;
        }
        if let Some(entry) = self.classes.iter_mut().find(|(w, _)| *w == v) {
            entry.1 |= mask;
        } else {
            self.classes.push((v, mask));
        }
    }

    /// The mask of lanes holding a reliable value.
    fn union(&self) -> u64 {
        self.classes.iter().fold(0, |m, &(_, cm)| m | cm)
    }

    /// The value lane `lane` holds (⊥ when in no class).
    fn value_at(&self, lane: usize) -> Value {
        let bit = 1u64 << lane;
        self.classes
            .iter()
            .find(|&&(_, m)| m & bit != 0)
            .map_or(Value::Unreliable, |&(v, _)| v)
    }

    /// Rebuilds the partition from one scalar value per lane.
    fn set_from_lane_values(&mut self, vals: &[Value]) {
        self.classes.clear();
        for (li, &v) in vals.iter().enumerate() {
            self.push(v, 1u64 << li);
        }
    }

    /// Copies `other` into `self` reusing `self`'s allocation (the
    /// derived `clone_from` would allocate a fresh vector).
    fn copy_from(&mut self, other: &LaneClasses) {
        self.classes.clear();
        self.classes.extend_from_slice(&other.classes);
    }
}

/// The packed analogue of [`Trace`]: per communicator, the chronological
/// update records, each pointing at a [`LaneClasses`] snapshot in a
/// shared class pool.
#[derive(Debug, Clone, Default)]
pub struct PackedTrace {
    /// Per communicator: `(at, pool_start, class_count)` per update.
    rows: Vec<Vec<(Tick, u32, u32)>>,
    /// Flattened class snapshots, shared across all rows.
    pool: Vec<(Value, u64)>,
}

impl PackedTrace {
    fn new(comm_count: usize) -> Self {
        PackedTrace {
            rows: vec![Vec::new(); comm_count],
            pool: Vec::new(),
        }
    }

    fn record(&mut self, comm: usize, at: Tick, classes: &LaneClasses) {
        let start = u32::try_from(self.pool.len()).expect("packed trace pool overflow");
        self.pool.extend_from_slice(&classes.classes);
        self.rows[comm].push((at, start, classes.classes.len() as u32));
    }

    /// Lane `lane`'s scalar value at row `(start, len)`.
    fn value_at(&self, start: u32, len: u32, lane: usize) -> Value {
        let bit = 1u64 << lane;
        self.pool[start as usize..(start + len) as usize]
            .iter()
            .find(|&&(_, m)| m & bit != 0)
            .map_or(Value::Unreliable, |&(v, _)| v)
    }
}

/// The packed result of [`Simulation::run_bitsliced`]; one
/// [`SimOutput`] per lane via [`BitslicedOutput::extract_lane`].
#[derive(Debug, Clone)]
pub struct BitslicedOutput {
    lanes: usize,
    trace: PackedTrace,
    /// Per task: executed rounds (lane-invariant).
    invocations: Vec<u64>,
    /// Per task: rounds in which *every* lane delivered.
    delivered_all: Vec<u64>,
    /// Per `(task, lane)`: deliveries in rounds where not every lane
    /// delivered (row-major, `task * lanes + lane`).
    delivered_extra: Vec<u64>,
    /// Final communicator values, per communicator.
    final_classes: Vec<LaneClasses>,
}

impl BitslicedOutput {
    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reconstructs lane `lane`'s scalar [`SimOutput`] — bit-identical to
    /// what [`Simulation::run`] (or `run_observed`) produces for that
    /// lane's seed, injector and environment.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn extract_lane(&self, spec: &Specification, lane: usize) -> SimOutput {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let mut trace = Trace::new(spec);
        for (ci, rows) in self.trace.rows.iter().enumerate() {
            let c = CommunicatorId::new(ci as u32);
            for &(at, start, len) in rows {
                trace.record(c, at, self.trace.value_at(start, len, lane));
            }
        }
        let task_count = self.invocations.len();
        let task_stats = (0..task_count)
            .map(|t| TaskStats {
                delivered: self.delivered_all[t] + self.delivered_extra[t * self.lanes + lane],
                invocations: self.invocations[t],
            })
            .collect();
        let final_values = self
            .final_classes
            .iter()
            .map(|cls| cls.value_at(lane))
            .collect();
        SimOutput {
            trace,
            task_stats,
            final_values,
        }
    }
}

/// One lane's private execution context: seeded RNG, fault injector,
/// environment, supervisor and metrics sink.
///
/// Lane `i` of a packed run behaves exactly like a scalar
/// [`Simulation::run_observed`] call with seed `seed`, the same injector
/// and environment, because the kernel performs every draw and hook call
/// on this context in the scalar order.
#[derive(Debug, Clone)]
pub struct LaneContext<I, E, S = NoSupervisor, M = NoopSink> {
    rng: StdRng,
    injector: I,
    environment: E,
    supervisor: S,
    sink: M,
}

impl<I, E, S, M> LaneContext<I, E, S, M> {
    /// A fully supervised and observed lane. `seed` matches the scalar
    /// [`SimConfig::seed`](crate::SimConfig) of the replication this lane
    /// replays.
    pub fn new(seed: u64, injector: I, environment: E, supervisor: S, sink: M) -> Self {
        LaneContext {
            rng: StdRng::seed_from_u64(seed),
            injector,
            environment,
            supervisor,
            sink,
        }
    }

    /// Dismantles the lane, returning the injector, environment,
    /// supervisor and sink (e.g. to harvest per-lane metrics).
    pub fn into_parts(self) -> (I, E, S, M) {
        (self.injector, self.environment, self.supervisor, self.sink)
    }
}

impl<I, E> LaneContext<I, E> {
    /// An unsupervised, unobserved lane — the packed analogue of
    /// [`Simulation::run`].
    pub fn plain(seed: u64, injector: I, environment: E) -> Self {
        LaneContext::new(seed, injector, environment, NoSupervisor, NoopSink)
    }
}

impl<'a> Simulation<'a> {
    /// Runs up to 64 replications bit-sliced in one pass over the round
    /// program. Lane `i` replays the scalar run of `lanes[i]`'s seed,
    /// injector and environment exactly; see the module docs for the
    /// shared-behaviors purity contract and the fast/slow path split.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or holds more than 64 contexts.
    pub fn run_bitsliced<I, E, S, M>(
        &self,
        behaviors: &mut BehaviorMap,
        lanes: &mut [LaneContext<I, E, S, M>],
        rounds: u64,
    ) -> BitslicedOutput
    where
        I: FaultInjector,
        E: Environment,
        S: Supervisor,
        M: MetricsSink,
    {
        let spec = self.spec;
        let prog = &self.program;
        let round = spec.round_period().as_u64();
        let phase_count = prog.phases.len() as u64;
        let n = lanes.len();
        assert!(
            (1..=64).contains(&n),
            "bit-sliced run needs 1..=64 lanes, got {n}"
        );
        let all_mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        // Any corrupting lane forces the slow (materialized-replicas)
        // path for the whole run; see the module docs.
        let corrupting = lanes.iter().any(|l| l.injector.corrupts());
        // Passive environments/supervisors contract their hooks to
        // no-ops, so the per-lane hook loops below can be skipped.
        let passive_env = lanes.iter().all(|l| l.environment.is_passive());
        let passive_sup = lanes.iter().all(|l| l.supervisor.is_passive());
        // Correlated-failure gates: the partition delivery check and the
        // adaptive vote echo are pure (no RNG draws), so lanes with a
        // plain injector see exactly their scalar call sequence whether
        // or not another lane partitions or adapts.
        let partitioned = lanes.iter().any(|l| l.injector.partitions());
        let adaptive = lanes.iter().any(|l| l.injector.adaptive());
        let audiences = if partitioned {
            task_audiences(spec, self.imp.phases())
        } else {
            Vec::new()
        };

        let comm_count = spec.communicator_count();
        let mut trace = PackedTrace::new(comm_count);
        let mut comm_classes: Vec<LaneClasses> = spec
            .communicator_ids()
            .map(|c| {
                let mut cls = LaneClasses::default();
                cls.push(spec.communicator(c).init(), all_mask);
                cls
            })
            .collect();
        let mut latched = vec![LaneClasses::default(); prog.total_inputs];
        let mut result_classes = [
            vec![LaneClasses::default(); prog.total_outputs],
            vec![LaneClasses::default(); prog.total_outputs],
        ];
        let mut result_delivered = [vec![0u64; spec.task_count()], vec![0u64; spec.task_count()]];
        let mut invocations = vec![0u64; spec.task_count()];
        let mut delivered_all = vec![0u64; spec.task_count()];
        let mut delivered_extra = vec![0u64; spec.task_count() * n];

        // Scratch, allocated once per run.
        let max_out = prog.max_outputs;
        let mut lane_vals = vec![Value::Unreliable; n];
        let mut cells_mask: Vec<u64> = Vec::with_capacity(n);
        let mut cells_vals: Vec<Value> = Vec::with_capacity(n * prog.max_inputs);
        let mut next_mask: Vec<u64> = Vec::with_capacity(n);
        let mut next_vals: Vec<Value> = Vec::with_capacity(n * prog.max_inputs);
        let mut cell_outs: Vec<Value> = Vec::with_capacity(n * max_out);
        let mut lane_cell = vec![0usize; n];
        let mut inputs_buf: Vec<Value> = Vec::with_capacity(prog.max_inputs);
        let mut outputs_buf: Vec<Value> = Vec::with_capacity(max_out);
        let mut ok_masks = vec![0u64; prog.max_replicas];
        // Slow path only: per-(replica, lane) output rows, and one lane's
        // gathered rows for `vote_into`.
        let mut rep_vals = if corrupting {
            vec![Value::Unreliable; prog.max_replicas * n * max_out]
        } else {
            Vec::new()
        };
        let mut lane_rep_vals = vec![Value::Unreliable; prog.max_replicas * max_out];
        let mut lane_rep_ok = vec![false; prog.max_replicas];
        let mut voted_buf = vec![Value::Unreliable; max_out];
        let mut delivered_hosts: Vec<HostId> = Vec::with_capacity(prog.max_replicas);

        // Observation state, per lane. With `NoopSink` this is constant
        // `false` and the obs blocks below monomorphize away.
        let any_obs = lanes.iter().any(|l| l.sink.enabled());
        let obs: Vec<bool> = lanes.iter().map(|l| l.sink.enabled()).collect();
        let hosts = if any_obs {
            prog.phases
                .iter()
                .flat_map(|p| p.hosts.iter().flatten())
                .map(|h| h.index())
                .max()
                .map_or(0, |m| m + 1)
        } else {
            0
        };
        // Per host: mask of lanes that consider the host up.
        let mut host_up = vec![all_mask; hosts];
        let mut hosts_up_count = vec![hosts; n];
        if any_obs {
            for lane in lanes.iter_mut().filter(|l| l.sink.enabled()) {
                lane.sink.set_gauge(names::HOSTS_UP, hosts as f64);
            }
        }

        for r in 0..rounds {
            let phase = &prog.phases[(r % phase_count) as usize];
            let base = r * round;
            let parity = (r % 2) as usize;
            for sp in &prog.slots {
                let now = Tick::new(base + sp.offset);
                if !passive_env {
                    for lane in lanes.iter_mut() {
                        lane.environment.advance(now);
                    }
                }

                // ---- 1. communicator updates due at this instant ----
                for op in &sp.updates {
                    match *op {
                        UpdateOp::Sensor { comm } => {
                            let c = CommunicatorId::new(comm);
                            let sensors = &phase.sensors[comm as usize];
                            for (li, lane) in lanes.iter_mut().enumerate() {
                                let mut any_ok = false;
                                for &s in sensors {
                                    // Sample every sensor (no short-circuit),
                                    // as in the scalar kernel.
                                    if lane.injector.sensor_ok(s, now, &mut lane.rng) {
                                        any_ok = true;
                                    }
                                }
                                lane_vals[li] = if any_ok {
                                    lane.environment.sense(c, now)
                                } else {
                                    Value::Unreliable
                                };
                            }
                            comm_classes[comm as usize].set_from_lane_values(&lane_vals);
                            trace.record(comm as usize, now, &comm_classes[comm as usize]);
                            if !passive_sup {
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    lane.supervisor
                                        .observe_with(c, now, lane_vals[li], &mut lane.sink);
                                }
                            }
                        }
                        UpdateOp::Landed {
                            comm,
                            task,
                            out_slot,
                            rounds_back,
                        } => {
                            let c = CommunicatorId::new(comm);
                            let rb = u64::from(rounds_back);
                            if r >= rb {
                                let p = ((r - rb) % 2) as usize;
                                let dm = result_delivered[p][task as usize];
                                let src = &result_classes[p][out_slot as usize];
                                let dst = &mut comm_classes[comm as usize];
                                dst.clear();
                                for &(v, m) in &src.classes {
                                    dst.push(v, m & dm);
                                }
                            }
                            // else: nothing produced yet, init persists.
                            trace.record(comm as usize, now, &comm_classes[comm as usize]);
                            if !(passive_env && passive_sup) {
                                let cls = &comm_classes[comm as usize];
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    let v = cls.value_at(li);
                                    lane.supervisor.observe_with(c, now, v, &mut lane.sink);
                                    lane.environment.actuate(c, v, now);
                                }
                            }
                        }
                        UpdateOp::Persist { comm } => {
                            let c = CommunicatorId::new(comm);
                            trace.record(comm as usize, now, &comm_classes[comm as usize]);
                            if !(passive_env && passive_sup) {
                                let cls = &comm_classes[comm as usize];
                                for (li, lane) in lanes.iter_mut().enumerate() {
                                    let v = cls.value_at(li);
                                    lane.supervisor.observe_with(c, now, v, &mut lane.sink);
                                    lane.environment.actuate(c, v, now);
                                }
                            }
                        }
                    }
                    if any_obs {
                        let un = comm_classes[op.comm()].union();
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if obs[li] {
                                lane.sink.inc(names::UPDATES);
                                if un & (1u64 << li) == 0 {
                                    lane.sink.inc(names::UPDATES_UNRELIABLE);
                                }
                            }
                        }
                    }
                }

                // ---- 2. latch input accesses due at this instant ----
                for l in &sp.latches {
                    let (dst, src) = (l.dst as usize, l.comm as usize);
                    // `latched` and `comm_classes` are distinct vectors.
                    let cls = &comm_classes[src];
                    latched[dst].copy_from(cls);
                }

                // ---- 3. task reads / logical execution ----
                for &ti in &sp.reads {
                    let t = ti as usize;
                    let tt = &prog.tasks[t];
                    let raw = &latched[tt.in_range()];
                    // The lane mask on which the task logically executes.
                    let exec: u64 = match tt.model {
                        FailureModel::Series => {
                            raw.iter().fold(all_mask, |m, cls| m & cls.union())
                        }
                        FailureModel::Parallel => raw.iter().fold(0, |m, cls| m | cls.union()),
                        FailureModel::Independent => all_mask,
                    };

                    // Partition the executing lanes into input-equivalence
                    // cells: lanes in one cell agree on every
                    // (default-substituted) input, so one behavior
                    // invocation serves the whole cell.
                    cells_mask.clear();
                    cells_vals.clear();
                    if exec != 0 {
                        cells_mask.push(exec);
                        for (j, cls) in raw.iter().enumerate() {
                            next_mask.clear();
                            next_vals.clear();
                            for (ci, &cm) in cells_mask.iter().enumerate() {
                                let vals = &cells_vals[ci * j..(ci + 1) * j];
                                let mut rem = cm;
                                for &(v, m) in &cls.classes {
                                    let sub = cm & m;
                                    if sub != 0 {
                                        rem &= !m;
                                        next_mask.push(sub);
                                        next_vals.extend_from_slice(vals);
                                        next_vals.push(v);
                                    }
                                }
                                if rem != 0 {
                                    // ⊥ lanes read the declared default.
                                    next_mask.push(rem);
                                    next_vals.extend_from_slice(vals);
                                    next_vals.push(tt.defaults[j]);
                                }
                            }
                            mem::swap(&mut cells_mask, &mut next_mask);
                            mem::swap(&mut cells_vals, &mut next_vals);
                        }
                    }
                    let n_in = tt.n_in;
                    let n_out = tt.n_out;
                    cell_outs.clear();
                    for ci in 0..cells_mask.len() {
                        inputs_buf.clear();
                        inputs_buf.extend_from_slice(&cells_vals[ci * n_in..(ci + 1) * n_in]);
                        behaviors.invoke_into(spec, TaskId::new(ti), &inputs_buf, &mut outputs_buf);
                        cell_outs.extend_from_slice(&outputs_buf);
                    }
                    if corrupting {
                        // Lane → cell map, for materializing replica rows.
                        for (ci, &cm) in cells_mask.iter().enumerate() {
                            let mut m = cm;
                            while m != 0 {
                                lane_cell[m.trailing_zeros() as usize] = ci;
                                m &= m - 1;
                            }
                        }
                    }

                    let hosts_of = &phase.hosts[t];
                    let mut delivered_mask = 0u64;
                    for (i, &h) in hosts_of.iter().enumerate() {
                        let mut okm = 0u64;
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            let bit = 1u64 << li;
                            // Sample both draws for every replica, as in
                            // the scalar kernel.
                            let host_ok = lane.injector.host_ok(h, now, &mut lane.rng);
                            let bc_ok = lane.injector.broadcast_ok(h, now, &mut lane.rng)
                                && (!partitioned
                                    || audiences[t]
                                        .iter()
                                        .all(|&rcv| lane.injector.delivers(h, rcv, now)));
                            let warm = !tt.stateful
                                || warm_after_rejoin(lane.injector.rejoined_at(h, now), now, round);
                            let excluded =
                                lane.supervisor.exclude_replica(TaskId::new(ti), h, now);
                            let executes = exec & bit != 0;
                            let ok = executes && host_ok && bc_ok && warm && !excluded;
                            if ok {
                                okm |= bit;
                                if corrupting {
                                    let dst =
                                        &mut rep_vals[(i * n + li) * max_out..][..n_out];
                                    let cidx = lane_cell[li];
                                    dst.copy_from_slice(
                                        &cell_outs[cidx * n_out..(cidx + 1) * n_out],
                                    );
                                    lane.injector.corrupt(h, now, dst, &mut lane.rng);
                                }
                                // Fast path: `corrupts()` guarantees the
                                // corrupt hook neither mutates nor draws,
                                // so the call is skipped entirely.
                            }
                            if any_obs && obs[li] {
                                let hi = h.index();
                                if (host_up[hi] & bit != 0) != host_ok {
                                    host_up[hi] ^= bit;
                                    if host_ok {
                                        hosts_up_count[li] += 1;
                                        lane.sink.inc(names::HOST_UP_TRANSITIONS);
                                        lane.sink.event(&ObsEvent::HostUp {
                                            at: now.as_u64(),
                                            host: hi,
                                        });
                                    } else {
                                        hosts_up_count[li] -= 1;
                                        lane.sink.inc(names::HOST_DOWN_TRANSITIONS);
                                        lane.sink.event(&ObsEvent::HostDown {
                                            at: now.as_u64(),
                                            host: hi,
                                        });
                                    }
                                    lane.sink
                                        .set_gauge(names::HOSTS_UP, hosts_up_count[li] as f64);
                                }
                                if host_ok && !bc_ok {
                                    lane.sink.inc(names::BROADCAST_FAIL);
                                }
                                if ok {
                                    lane.sink.inc(names::REPLICA_OK);
                                } else {
                                    let reason = if !executes {
                                        DropReason::NotExecuted
                                    } else if !host_ok {
                                        DropReason::HostDown
                                    } else if !bc_ok {
                                        DropReason::Broadcast
                                    } else if !warm {
                                        DropReason::Warmup
                                    } else {
                                        DropReason::Excluded
                                    };
                                    lane.sink.inc(names::REPLICA_DROP);
                                    lane.sink.inc(drop_counter(reason));
                                    if reason != DropReason::NotExecuted {
                                        lane.sink.event(&ObsEvent::ReplicaDrop {
                                            at: now.as_u64(),
                                            task: t,
                                            host: hi,
                                            reason,
                                        });
                                    }
                                }
                            }
                        }
                        ok_masks[i] = okm;
                        delivered_mask |= okm;
                    }

                    // ---- vote ----
                    let out_base = tt.out_base;
                    for cls in &mut result_classes[parity][tt.out_range()] {
                        cls.clear();
                    }
                    if !corrupting {
                        // All delivering replicas of a lane agree (no
                        // corruption), so any strategy votes the cell's
                        // output for every delivering lane.
                        for (ci, &cm) in cells_mask.iter().enumerate() {
                            let dm = cm & delivered_mask;
                            if dm != 0 {
                                for k in 0..n_out {
                                    result_classes[parity][out_base + k]
                                        .push(cell_outs[ci * n_out + k], dm);
                                }
                            }
                        }
                    } else {
                        for li in 0..n {
                            let bit = 1u64 << li;
                            if delivered_mask & bit == 0 {
                                // vote_into would fill ⊥; absence is ⊥.
                                continue;
                            }
                            for (i, ok) in lane_rep_ok[..hosts_of.len()].iter_mut().enumerate()
                            {
                                *ok = ok_masks[i] & bit != 0;
                                if *ok {
                                    lane_rep_vals[i * n_out..(i + 1) * n_out].copy_from_slice(
                                        &rep_vals[(i * n + li) * max_out..][..n_out],
                                    );
                                }
                            }
                            crate::voting::vote_into(
                                &lane_rep_vals[..hosts_of.len() * n_out],
                                &lane_rep_ok[..hosts_of.len()],
                                n_out,
                                self.voting,
                                &mut voted_buf[..n_out],
                            );
                            for k in 0..n_out {
                                result_classes[parity][out_base + k].push(voted_buf[k], bit);
                            }
                        }
                    }

                    invocations[t] += 1;
                    if delivered_mask == all_mask {
                        delivered_all[t] += 1;
                    } else {
                        let mut m = delivered_mask;
                        while m != 0 {
                            delivered_extra[t * n + m.trailing_zeros() as usize] += 1;
                            m &= m - 1;
                        }
                    }
                    result_delivered[parity][t] = delivered_mask;

                    // Adaptive vote echo: lane `li`'s delivering hosts are
                    // the replicas whose ok-mask has bit `li` set, so the
                    // fast path needs no materialized replica rows.
                    if adaptive {
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if !lane.injector.adaptive() {
                                continue;
                            }
                            let bit = 1u64 << li;
                            delivered_hosts.clear();
                            for (i, &h) in hosts_of.iter().enumerate() {
                                if ok_masks[i] & bit != 0 {
                                    delivered_hosts.push(h);
                                }
                            }
                            lane.injector.observe_vote(
                                TaskId::new(ti),
                                now,
                                &delivered_hosts,
                                hosts_of.len(),
                            );
                        }
                    }

                    if any_obs {
                        for (li, lane) in lanes.iter_mut().enumerate() {
                            if !obs[li] {
                                continue;
                            }
                            let bit = 1u64 << li;
                            lane.sink.inc(names::TASK_INVOCATIONS);
                            let n_del = ok_masks[..hosts_of.len()]
                                .iter()
                                .filter(|&&m| m & bit != 0)
                                .count();
                            lane.sink.observe(names::REPLICAS_PER_VOTE, n_del as f64);
                            let lane_delivered = delivered_mask & bit != 0;
                            if lane_delivered {
                                lane.sink.inc(names::TASK_DELIVERED);
                            }
                            let outcome = if !corrupting {
                                // Uncorrupted delivering rows are equal.
                                if lane_delivered {
                                    VoteOutcome::Unanimous
                                } else {
                                    VoteOutcome::Silent
                                }
                            } else {
                                for (i, ok) in
                                    lane_rep_ok[..hosts_of.len()].iter_mut().enumerate()
                                {
                                    *ok = ok_masks[i] & bit != 0;
                                    if *ok {
                                        lane_rep_vals[i * n_out..(i + 1) * n_out]
                                            .copy_from_slice(
                                                &rep_vals[(i * n + li) * max_out..][..n_out],
                                            );
                                    }
                                }
                                crate::voting::classify_outcome(
                                    &lane_rep_vals[..hosts_of.len() * n_out],
                                    &lane_rep_ok[..hosts_of.len()],
                                    n_out,
                                )
                            };
                            lane.sink.inc(vote_counter(outcome));
                            lane.sink.event(&ObsEvent::Vote {
                                at: now.as_u64(),
                                task: t,
                                outcome,
                                delivered: n_del,
                                replicas: hosts_of.len(),
                            });
                        }
                    }
                }
            }
            if any_obs {
                for (li, lane) in lanes.iter_mut().enumerate() {
                    if obs[li] {
                        lane.sink.inc(names::ROUNDS);
                    }
                }
            }
        }

        BitslicedOutput {
            lanes: n,
            trace,
            invocations,
            delivered_all,
            delivered_extra,
            final_classes: comm_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_classes_partition_and_lookup() {
        let mut cls = LaneClasses::default();
        cls.push(Value::Float(1.0), 0b0011);
        cls.push(Value::Float(2.0), 0b0100);
        cls.push(Value::Float(1.0), 0b1000); // coalesces
        assert_eq!(cls.classes.len(), 2);
        assert_eq!(cls.union(), 0b1111);
        assert_eq!(cls.value_at(0), Value::Float(1.0));
        assert_eq!(cls.value_at(2), Value::Float(2.0));
        assert_eq!(cls.value_at(3), Value::Float(1.0));
        assert_eq!(cls.value_at(5), Value::Unreliable);
        // ⊥ and empty masks are dropped.
        cls.push(Value::Unreliable, 0b1_0000);
        cls.push(Value::Float(9.0), 0);
        assert_eq!(cls.classes.len(), 2);
    }

    #[test]
    fn set_from_lane_values_roundtrips() {
        let vals = [
            Value::Float(5.0),
            Value::Unreliable,
            Value::Float(5.0),
            Value::Int(3),
        ];
        let mut cls = LaneClasses::default();
        cls.set_from_lane_values(&vals);
        for (li, &v) in vals.iter().enumerate() {
            assert_eq!(cls.value_at(li), v);
        }
        assert_eq!(cls.union(), 0b0101 | 0b1000);
    }

    #[test]
    fn packed_trace_extracts_lane_values() {
        let mut t = PackedTrace::new(1);
        let mut cls = LaneClasses::default();
        cls.push(Value::Int(7), 0b01);
        t.record(0, Tick::new(0), &cls);
        cls.clear();
        t.record(0, Tick::new(5), &cls);
        assert_eq!(t.rows[0].len(), 2);
        let (_, s0, l0) = t.rows[0][0];
        assert_eq!(t.value_at(s0, l0, 0), Value::Int(7));
        assert_eq!(t.value_at(s0, l0, 1), Value::Unreliable);
        let (_, s1, l1) = t.rows[0][1];
        assert_eq!(t.value_at(s1, l1, 0), Value::Unreliable);
    }
}
