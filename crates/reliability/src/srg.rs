//! Singular reliability guarantees (SRGs).
//!
//! Given an implementation `I`, the reliability of a task `t` is
//! `λ_t = 1 − Π_{h ∈ I(t)} (1 − hrel(h))` — the probability that at least
//! one replication executes. The SRG `λ_c` of a communicator is defined
//! inductively (§3):
//!
//! * input communicator updated by sensors: `λ_c = 1 − Π (1 − srel(s))`
//!   over the bound sensors (the paper's single-sensor base case
//!   `λ_c = srel(s)` generalised to replicated sensors);
//! * written by task `t` with input failure model…
//!   * *series*: `λ_c = λ_t · Π_{c' ∈ icset_t} λ_{c'}`;
//!   * *parallel*: `λ_c = λ_t · (1 − Π_{c' ∈ icset_t} (1 − λ_{c'}))`;
//!   * *independent*: `λ_c = λ_t`.
//!
//! Like the paper (and classical RBD analysis), the induction treats the
//! reliability of distinct inputs as independent; this is exact for
//! tree-shaped dependency structures and an approximation when a
//! communicator reaches a task along several paths.
//!
//! A non-perfect atomic broadcast (an extension the paper sketches) is
//! folded in by derating each replication: a replication contributes only
//! if its host works *and* its broadcast is delivered, so the effective
//! per-replication reliability is `hrel(h) · brel`.
//!
//! The induction is written once, generic over a value domain: the
//! domain supplies the leaves (a replica `t@h`, a sensor, a constant
//! communicator) and the `series`/`parallel` combinators; this module
//! supplies the induction step, with the failure-model rule and the
//! checks on the implementation, and the analysis order. Four domains
//! run it: points here ([`compute_srgs`]), RBD blocks here
//! ([`communicator_block`]), sound intervals in [`crate::interval`] and
//! polynomials in [`crate::symbolic`]. The reports compute each SRG once,
//! in analysis order; an RBD is the same steps unfolded into a tree from
//! one communicator, so an input read along several paths appears once
//! per path.

use crate::error::ReliabilityError;
use crate::rbd::Block;
use crate::symbolic::Sym;
use logrel_core::graph::CommDependencyGraph;
use logrel_core::{
    Architecture, CommunicatorId, CoreError, FailureModel, HostId, Implementation, Reliability,
    SensorId, Specification, TaskId,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The reliability of every task and the SRG of every communicator of a
/// system, in one value domain of the induction.
#[derive(Debug, Clone, PartialEq)]
pub struct Srgs<V> {
    pub(crate) task: Vec<V>,
    pub(crate) comm: Vec<V>,
}

/// The point SRGs of [`compute_srgs`].
pub type SrgReport = Srgs<Reliability>;

impl<V: Copy> Srgs<V> {
    /// The reliability λ_t of task `t` under the analysed implementation.
    pub fn task(&self, t: TaskId) -> V {
        self.task[t.index()]
    }

    /// The SRG λ_c of communicator `c`.
    pub fn communicator(&self, c: CommunicatorId) -> V {
        self.comm[c.index()]
    }

    /// All communicator SRGs in declaration order.
    pub fn communicators(&self) -> &[V] {
        &self.comm
    }

    /// All task reliabilities in declaration order.
    pub fn tasks(&self) -> &[V] {
        &self.task
    }
}

impl SrgReport {
    /// Renders a human-readable table using the names from `spec`.
    pub fn render(&self, spec: &Specification) -> String {
        let mut out = String::new();
        out.push_str("task reliabilities:\n");
        for t in spec.task_ids() {
            out.push_str(&format!(
                "  λ({}) = {:.9}\n",
                spec.task(t).name(),
                self.task(t).get()
            ));
        }
        out.push_str("communicator SRGs:\n");
        for c in spec.communicator_ids() {
            let lrc = spec
                .communicator(c)
                .lrc()
                .map_or(String::from("-"), |m| format!("{:.9}", m.get()));
            out.push_str(&format!(
                "  λ({}) = {:.9}  (LRC {lrc})\n",
                spec.communicator(c).name(),
                self.communicator(c).get()
            ));
        }
        out
    }
}

impl fmt::Display for SrgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.comm.iter().enumerate() {
            writeln!(f, "c{i}: {}", r.get())?;
        }
        Ok(())
    }
}

/// A value domain of the §3 induction: its leaves and its two
/// combinators, each with the domain's own rounding and errors. The
/// combinators take their operands as [`Cow`]s so a domain whose values
/// are expensive to copy can borrow the ones the walk already holds.
pub(crate) trait SrgDomain {
    /// What a reliability is in this domain.
    type Value: Clone + 'static;

    /// The replica of task `t` on host `h`.
    fn replica(&self, t: TaskId, h: HostId) -> Result<Self::Value, ReliabilityError>;

    /// Sensor `s`.
    fn sensor(&self, s: SensorId) -> Self::Value;

    /// Communicator `c`, which neither a task nor a sensor updates: it
    /// holds its (reliable) initial value forever, like an empty series.
    fn constant(&self, _c: CommunicatorId) -> Result<Self::Value, ReliabilityError> {
        self.series([])
    }

    /// Every operand must be reliable.
    fn series<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Self::Value>>,
    ) -> Result<Self::Value, ReliabilityError>;

    /// At least one operand must be reliable.
    fn parallel<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Self::Value>>,
    ) -> Result<Self::Value, ReliabilityError>;
}

/// `λ_t` in domain `d`: the parallel block of `t`'s replicas.
fn task_value<D: SrgDomain>(
    d: &D,
    imp: &Implementation,
    t: TaskId,
) -> Result<D::Value, ReliabilityError> {
    let hosts = imp.hosts_of(t);
    if hosts.is_empty() {
        // An empty parallel block never works, which is outside (0, 1].
        return Err(CoreError::InvalidReliability { value: 0.0 }.into());
    }
    let replicas = hosts
        .iter()
        .map(|&h| d.replica(t, h).map(Cow::Owned))
        .collect::<Result<Vec<_>, _>>()?;
    d.parallel(replicas)
}

/// The SRG of sensor-input communicator `c` in domain `d`: the parallel
/// block of its bound sensors.
fn sensor_value<D: SrgDomain>(
    d: &D,
    spec: &Specification,
    imp: &Implementation,
    c: CommunicatorId,
) -> Result<D::Value, ReliabilityError> {
    let sensors = imp.sensors_of(c);
    if sensors.is_empty() {
        return Err(ReliabilityError::UnboundInput {
            communicator: spec.communicator(c).name().to_owned(),
        });
    }
    d.parallel(sensors.iter().map(|&s| Cow::Owned(d.sensor(s))))
}

/// The §3 induction step in domain `d`: `λ_c` from the `λ_t` of `c`'s
/// writer and the SRGs of that task's inputs, which `task` and `inputs`
/// supply on demand (inputs only under the series and parallel models).
/// This is the one place the failure-model rule is written.
fn comm_value<'v, D: SrgDomain, I: IntoIterator<Item = Cow<'v, D::Value>>>(
    d: &D,
    spec: &Specification,
    imp: &Implementation,
    c: CommunicatorId,
    task: impl FnOnce(TaskId) -> Result<Cow<'v, D::Value>, ReliabilityError>,
    inputs: impl FnOnce(BTreeSet<CommunicatorId>) -> Result<I, ReliabilityError>,
) -> Result<D::Value, ReliabilityError> {
    if spec.is_sensor_input(c) {
        return sensor_value(d, spec, imp, c);
    }
    let Some(t) = spec.writer(c) else {
        return d.constant(c);
    };
    let lt = task(t)?;
    match spec.task(t).failure_model() {
        FailureModel::Independent => Ok(lt.into_owned()),
        FailureModel::Series => {
            d.series(std::iter::once(lt).chain(inputs(spec.task(t).input_comm_set())?))
        }
        FailureModel::Parallel => {
            let any_input = d.parallel(inputs(spec.task(t).input_comm_set())?)?;
            d.series([lt, Cow::Owned(any_input)])
        }
    }
}

/// The whole induction in domain `d`.
pub(crate) fn induction<D: SrgDomain>(
    d: &D,
    spec: &Specification,
    imp: &Implementation,
) -> Result<Srgs<D::Value>, ReliabilityError> {
    let mut task = Vec::with_capacity(spec.task_count());
    for t in spec.task_ids() {
        task.push(task_value(d, imp, t)?);
    }
    let comm = vec![None; spec.communicator_count()];
    complete(d, spec, imp, &analysis_order(spec)?, task, comm)
}

/// The induction over the analysis `order`, given every task's `λ_t` and
/// the SRGs in `comm` the caller already knows: each other SRG is computed
/// once, from the stored SRGs of its inputs.
fn complete<D: SrgDomain>(
    d: &D,
    spec: &Specification,
    imp: &Implementation,
    order: &[CommunicatorId],
    task: Vec<D::Value>,
    mut comm: Vec<Option<D::Value>>,
) -> Result<Srgs<D::Value>, ReliabilityError> {
    for &c in order {
        if comm[c.index()].is_some() {
            continue;
        }
        let (task, done) = (&task, &comm);
        let lambda = comm_value(
            d,
            spec,
            imp,
            c,
            |t| Ok(Cow::Borrowed(&task[t.index()])),
            |inputs| {
                Ok(inputs.into_iter().map(move |i| {
                    Cow::Borrowed(done[i.index()].as_ref().expect("topological order"))
                }))
            },
        )?;
        comm[c.index()] = Some(lambda);
    }
    let comm = comm
        .into_iter()
        .map(|v| v.expect("`order` covers every communicator"));
    Ok(Srgs {
        task,
        comm: comm.collect(),
    })
}

/// The communicator analysis order, with cycles reported as errors.
fn analysis_order(spec: &Specification) -> Result<Vec<CommunicatorId>, ReliabilityError> {
    CommDependencyGraph::new(spec)
        .analysis_order()
        .map_err(|cyclic| ReliabilityError::CyclicDependencies {
            communicators: cyclic
                .iter()
                .map(|&c| spec.communicator(c).name().to_owned())
                .collect(),
        })
}

/// The point domain: [`Reliability`] values under
/// [`Reliability::series`] and [`Reliability::parallel`].
struct Point<'a>(&'a Architecture);

impl SrgDomain for Point<'_> {
    type Value = Reliability;

    fn replica(&self, _: TaskId, h: HostId) -> Result<Reliability, ReliabilityError> {
        let (hrel, brel) = (self.0.host(h).reliability(), self.0.broadcast_reliability());
        Ok(Reliability::series([hrel, brel])?)
    }

    fn sensor(&self, s: SensorId) -> Reliability {
        self.0.sensor(s).reliability()
    }

    fn series<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Reliability>>,
    ) -> Result<Reliability, ReliabilityError> {
        Ok(Reliability::series(items.into_iter().map(|r| *r))?)
    }

    fn parallel<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Reliability>>,
    ) -> Result<Reliability, ReliabilityError> {
        Ok(Reliability::parallel(items.into_iter().map(|r| *r))?)
    }
}

/// The RBD domain: labelled [`Block`] units (`task@host`, the sensor's
/// name, `const:<communicator>`) under series and parallel junctions.
struct Rbd<'a> {
    spec: &'a Specification,
    arch: &'a Architecture,
}

impl SrgDomain for Rbd<'_> {
    type Value = Block;

    fn replica(&self, t: TaskId, h: HostId) -> Result<Block, ReliabilityError> {
        let label = Sym::Replica(t, h).label(self.spec, self.arch);
        Ok(Block::named_unit(label, Point(self.arch).replica(t, h)?))
    }

    fn sensor(&self, s: SensorId) -> Block {
        let label = Sym::Sensor(s).label(self.spec, self.arch);
        Block::named_unit(label, self.arch.sensor(s).reliability())
    }

    fn constant(&self, c: CommunicatorId) -> Result<Block, ReliabilityError> {
        let label = format!("const:{}", self.spec.communicator(c).name());
        Ok(Block::named_unit(label, Reliability::ONE))
    }

    fn series<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Block>>,
    ) -> Result<Block, ReliabilityError> {
        Ok(Block::series(
            items.into_iter().map(Cow::into_owned).collect(),
        ))
    }

    fn parallel<'v>(
        &self,
        items: impl IntoIterator<Item = Cow<'v, Block>>,
    ) -> Result<Block, ReliabilityError> {
        Block::parallel(items.into_iter().map(Cow::into_owned).collect())
    }
}

/// The reliability `λ_t` of `task` under `imp`: the parallel combination of
/// its replications' effective reliabilities (`hrel · brel`).
///
/// # Errors
///
/// Returns [`ReliabilityError::Core`] if the host set is empty (an
/// unvalidated implementation).
pub fn task_reliability(
    arch: &Architecture,
    imp: &Implementation,
    task: TaskId,
) -> Result<Reliability, ReliabilityError> {
    task_value(&Point(arch), imp, task)
}

/// Computes the SRGs of every task and communicator for a static
/// implementation.
///
/// # Errors
///
/// * [`ReliabilityError::CyclicDependencies`] if the communicator
///   dependency graph contains a cycle with no independent-model task;
/// * [`ReliabilityError::UnboundInput`] if an input communicator has no
///   bound sensor.
///
/// # Example
///
/// The paper's introduction: a task on two hosts with SRG 0.8 each yields
/// `1 − 0.04 = 0.96 ≥ 0.9`.
///
/// ```
/// use logrel_core::prelude::*;
/// use logrel_reliability::compute_srgs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sb = Specification::builder();
/// let s = sb.communicator(
///     CommunicatorDecl::new("s", ValueType::Float, 10)?.from_sensor(),
/// )?;
/// let u = sb.communicator(
///     CommunicatorDecl::new("u", ValueType::Float, 10)?
///         .with_lrc(Reliability::new(0.9)?),
/// )?;
/// let t = sb.task(TaskDecl::new("t").reads(s, 0).writes(u, 1))?;
/// let spec = sb.build()?;
///
/// let mut ab = Architecture::builder();
/// let h1 = ab.host(HostDecl::new("h1", Reliability::new(0.8)?))?;
/// let h2 = ab.host(HostDecl::new("h2", Reliability::new(0.8)?))?;
/// let sen = ab.sensor(SensorDecl::new("sen", Reliability::ONE))?;
/// ab.wcet_all(t, 1)?;
/// ab.wctt_all(t, 1)?;
/// let arch = ab.build();
///
/// let imp = Implementation::builder()
///     .assign(t, [h1, h2])
///     .bind_sensor(s, sen)
///     .build(&spec, &arch)?;
/// let report = compute_srgs(&spec, &arch, &imp)?;
/// assert!((report.communicator(u).get() - 0.96).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn compute_srgs(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
) -> Result<SrgReport, ReliabilityError> {
    induction(&Point(arch), spec, imp)
}

/// Incremental SRG evaluation for synthesis loops.
///
/// Synthesis explores many candidate implementations that differ from one
/// another in a single task's host set; recomputing every task's parallel
/// block and re-deriving the analysis order per candidate dominates the
/// cost of [`crate::synthesis::exhaustive_synthesize`]. This helper hoists
/// the per-system work (topological order, sensor-input reliabilities) out
/// of the loop and memoizes each task's parallel block keyed by
/// `(task, host bitmask)`, so a candidate reusing a previously seen host
/// set costs one map lookup per task.
///
/// Every queried implementation must share the sensor bindings of the one
/// given to [`SrgComputation::new`] (synthesis rewrites assignments, never
/// bindings).
pub struct SrgComputation<'a> {
    spec: &'a Specification,
    arch: &'a Architecture,
    order: Vec<CommunicatorId>,
    /// The SRG of every sensor-input communicator, `None` elsewhere.
    sensor_lambda: Vec<Option<Reliability>>,
    /// Memoized `λ_t` keyed by `(task, host bitmask)`.
    task_cache: BTreeMap<(TaskId, u64), Reliability>,
}

impl<'a> SrgComputation<'a> {
    /// Prepares the shared state: validates the dependency structure and
    /// the sensor bindings of `base` once, up front.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`].
    pub fn new(
        spec: &'a Specification,
        arch: &'a Architecture,
        base: &Implementation,
    ) -> Result<Self, ReliabilityError> {
        let order = analysis_order(spec)?;
        let mut sensor_lambda = vec![None; spec.communicator_count()];
        for c in spec.communicator_ids().filter(|&c| spec.is_sensor_input(c)) {
            sensor_lambda[c.index()] = Some(sensor_value(&Point(arch), spec, base, c)?);
        }
        Ok(SrgComputation {
            spec,
            arch,
            order,
            sensor_lambda,
            task_cache: BTreeMap::new(),
        })
    }

    /// `λ_t` of `task` under `imp`, memoized by the host bitmask.
    fn task_lambda(
        &mut self,
        imp: &Implementation,
        task: TaskId,
    ) -> Result<Reliability, ReliabilityError> {
        let mut mask = 0u64;
        for &h in imp.hosts_of(task) {
            let Some(bit) = 1u64.checked_shl(h.index() as u32) else {
                // > 64 hosts: fall back to the uncached computation.
                return task_reliability(self.arch, imp, task);
            };
            mask |= bit;
        }
        if let Some(&cached) = self.task_cache.get(&(task, mask)) {
            return Ok(cached);
        }
        let lambda = task_reliability(self.arch, imp, task)?;
        self.task_cache.insert((task, mask), lambda);
        Ok(lambda)
    }

    /// Computes the [`SrgReport`] of `imp`, reusing every memoized task
    /// block. The result is identical to [`compute_srgs`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`] (cycles were already ruled out
    /// by [`SrgComputation::new`]).
    pub fn report(&mut self, imp: &Implementation) -> Result<SrgReport, ReliabilityError> {
        let mut task = Vec::with_capacity(self.spec.task_count());
        for t in self.spec.task_ids() {
            task.push(self.task_lambda(imp, t)?);
        }
        let known = self.sensor_lambda.clone();
        complete(&Point(self.arch), self.spec, imp, &self.order, task, known)
    }

    /// [`crate::analysis::check`] with memoized SRGs: identical verdict,
    /// but every repeated `(task, host set)` block is a cache hit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compute_srgs`].
    pub fn check(
        &mut self,
        imp: &Implementation,
    ) -> Result<crate::analysis::ReliabilityVerdict, ReliabilityError> {
        let report = self.report(imp)?;
        Ok(crate::analysis::verdict_from_phases(self.spec, vec![report]))
    }

    /// Number of distinct `(task, host set)` blocks memoized so far.
    pub fn cached_blocks(&self) -> usize {
        self.task_cache.len()
    }
}

/// Builds the reliability block diagram whose evaluation equals the SRG of
/// `comm`: task replications appear as parallel blocks of host units,
/// composed in series/parallel according to the input failure models.
///
/// This makes the paper's claim that its approach "is closest to that of
/// RBDs" executable: see the crate tests asserting
/// `communicator_block(..).reliability() == compute_srgs(..)`.
///
/// # Errors
///
/// Same conditions as [`compute_srgs`].
pub fn communicator_block(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    comm: CommunicatorId,
) -> Result<Block, ReliabilityError> {
    // Rejecting cycles up front makes the recursion terminate.
    analysis_order(spec)?;
    rbd(&Rbd { spec, arch }, imp, comm)
}

/// The induction unfolded into a tree from `c`: every input is built
/// afresh for each path that reads it, as an RBD requires.
fn rbd(d: &Rbd<'_>, imp: &Implementation, c: CommunicatorId) -> Result<Block, ReliabilityError> {
    let task = |t| task_value(d, imp, t).map(Cow::Owned);
    comm_value(d, d.spec, imp, c, task, |inputs| {
        inputs
            .into_iter()
            .map(|i| rbd(d, imp, i).map(Cow::Owned))
            .collect::<Result<Vec<_>, _>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        CommunicatorDecl, HostDecl, HostId, SensorDecl, SensorId, TaskDecl, Value, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// sensor -> s -> reader -> l -> ctrl -> u, all hosts/sensors at `rel`.
    fn pipeline(rel: f64) -> (Specification, Architecture, Implementation) {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 500)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let l = sb
            .communicator(CommunicatorDecl::new("l", ValueType::Float, 100).unwrap())
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 100).unwrap())
            .unwrap();
        let reader = sb
            .task(TaskDecl::new("reader").reads(s, 0).writes(l, 1))
            .unwrap();
        let ctrl = sb.task(TaskDecl::new("ctrl").reads(l, 1).writes(u, 3)).unwrap();
        let spec = sb.build().unwrap();

        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(rel))).unwrap();
        let h3 = ab.host(HostDecl::new("h3", r(rel))).unwrap();
        ab.sensor(SensorDecl::new("sen1", r(rel))).unwrap();
        for t in [reader, ctrl] {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(reader, [h3])
            .assign(ctrl, [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        (spec, arch, imp)
    }

    #[test]
    fn series_chain_multiplies() {
        let (spec, arch, imp) = pipeline(0.999);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        let l = spec.find_communicator("l").unwrap();
        let u = spec.find_communicator("u").unwrap();
        assert!((report.communicator(l).get() - 0.999f64.powi(2)).abs() < 1e-12);
        assert!((report.communicator(u).get() - 0.999f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn replication_raises_task_reliability() {
        let (spec, arch, imp) = pipeline(0.999);
        let ctrl = spec.find_task("ctrl").unwrap();
        let imp2 = imp.with_assignment(ctrl, [HostId::new(0), HostId::new(1)]);
        let lt = task_reliability(&arch, &imp2, ctrl).unwrap();
        assert!((lt.get() - (1.0 - 0.001f64 * 0.001)).abs() < 1e-12);
    }

    #[test]
    fn broadcast_reliability_derates_replicas() {
        let (spec, _, _) = pipeline(0.999);
        let mut ab = Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.9))).unwrap();
        ab.sensor(SensorDecl::new("sen1", r(1.0))).unwrap();
        for t in spec.task_ids() {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        ab.broadcast_reliability(r(0.5));
        let arch = ab.build();
        let s = spec.find_communicator("s").unwrap();
        let imp = Implementation::builder()
            .assign(spec.find_task("reader").unwrap(), [h1])
            .assign(spec.find_task("ctrl").unwrap(), [h1])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        let lt = task_reliability(&arch, &imp, spec.find_task("ctrl").unwrap()).unwrap();
        assert!((lt.get() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn parallel_model_needs_only_one_input() {
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let b = sb
            .communicator(
                CommunicatorDecl::new("b", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(
                TaskDecl::new("t")
                    .reads(a, 0)
                    .reads(b, 0)
                    .writes(o, 1)
                    .model(FailureModel::Parallel)
                    .default_value(Value::Float(0.0))
                    .default_value(Value::Float(0.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(1.0))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.9))).unwrap();
        let s2 = ab.sensor(SensorDecl::new("s2", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, s1)
            .bind_sensor(b, s2)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        // λ_o = 1.0 * (1 - 0.1^2) = 0.99
        assert!((report.communicator(o).get() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn independent_model_ignores_inputs() {
        let mut sb = Specification::builder();
        let a = sb
            .communicator(
                CommunicatorDecl::new("a", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let o = sb
            .communicator(CommunicatorDecl::new("o", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(
                TaskDecl::new("t")
                    .reads(a, 0)
                    .writes(o, 1)
                    .model(FailureModel::Independent)
                    .default_value(Value::Float(0.0)),
            )
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(0.95))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.5))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(a, s1)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        assert!((report.communicator(o).get() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn sensor_replication_parallel_base_case() {
        let (spec, _, _) = pipeline(0.999);
        let s = spec.find_communicator("s").unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(1.0))).unwrap();
        let s1 = ab.sensor(SensorDecl::new("s1", r(0.999))).unwrap();
        let s2 = ab.sensor(SensorDecl::new("s2", r(0.999))).unwrap();
        for t in spec.task_ids() {
            ab.wcet_all(t, 1).unwrap();
            ab.wctt_all(t, 1).unwrap();
        }
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(spec.find_task("reader").unwrap(), [h])
            .assign(spec.find_task("ctrl").unwrap(), [h])
            .bind_sensor(s, s1)
            .bind_sensor(s, s2)
            .build(&spec, &arch)
            .unwrap();
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        assert!((report.communicator(s).get() - (1.0 - 0.001f64 * 0.001)).abs() < 1e-12);
    }

    #[test]
    fn cyclic_series_spec_is_rejected() {
        let mut sb = Specification::builder();
        let c = sb
            .communicator(CommunicatorDecl::new("c", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb.task(TaskDecl::new("t").reads(c, 0).writes(c, 1)).unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab.host(HostDecl::new("h", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .build(&spec, &arch)
            .unwrap();
        let err = compute_srgs(&spec, &arch, &imp).unwrap_err();
        assert!(matches!(err, ReliabilityError::CyclicDependencies { .. }));
        assert!(communicator_block(&spec, &arch, &imp, c).is_err());
    }

    #[test]
    fn rbd_matches_srg_induction() {
        let (spec, arch, imp) = pipeline(0.97);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        for c in spec.communicator_ids() {
            let block = communicator_block(&spec, &arch, &imp, c).unwrap();
            let via_rbd = block.reliability().unwrap();
            assert!(
                (via_rbd.get() - report.communicator(c).get()).abs() < 1e-12,
                "mismatch for {}",
                spec.communicator(c).name()
            );
        }
    }

    #[test]
    fn memoized_computation_matches_compute_srgs() {
        let (spec, arch, imp) = pipeline(0.97);
        let reader = spec.find_task("reader").unwrap();
        let ctrl = spec.find_task("ctrl").unwrap();
        let mut cached = SrgComputation::new(&spec, &arch, &imp).unwrap();
        // Enumerate every non-empty host subset for both tasks, twice —
        // the second sweep must hit the cache and still agree exactly.
        let hosts: Vec<HostId> = arch.host_ids().collect();
        let mut distinct = 0usize;
        for _ in 0..2 {
            for rmask in 1u32..(1 << hosts.len()) {
                for cmask in 1u32..(1 << hosts.len()) {
                    let pick = |mask: u32| {
                        hosts
                            .iter()
                            .enumerate()
                            .filter(move |(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &h)| h)
                    };
                    let candidate = imp
                        .with_assignment(reader, pick(rmask))
                        .with_assignment(ctrl, pick(cmask));
                    let fast = cached.report(&candidate).unwrap();
                    let slow = compute_srgs(&spec, &arch, &candidate).unwrap();
                    assert_eq!(fast, slow);
                    distinct += 1;
                }
            }
        }
        assert!(distinct > cached.cached_blocks(), "the cache must be hit");
        // 2 tasks × 3 non-empty subsets of 2 hosts.
        assert_eq!(cached.cached_blocks(), 6);
    }

    #[test]
    fn report_render_names_everything() {
        let (spec, arch, imp) = pipeline(0.999);
        let report = compute_srgs(&spec, &arch, &imp).unwrap();
        let text = report.render(&spec);
        for name in ["reader", "ctrl", "s", "l", "u"] {
            assert!(text.contains(name));
        }
        assert!(!report.to_string().is_empty());
    }
}
