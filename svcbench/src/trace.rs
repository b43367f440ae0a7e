//! The traced run: replays the job stream by calling each layer's
//! public functions in the engine's order, with a span around every
//! call, and derives self times, the per-job stage table and the
//! per-layer metrics.
//!
//! Spans are recorded by the benchmark around calls into the layers;
//! nothing inside the program is instrumented. The front half (parse,
//! elaborate, analysis, compile, SRGs, round-program compile) runs only
//! on a compile-cache miss, exactly as in the service, so cache-hit
//! workloads show the same split the service sees.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use logrel_core::{Calendar, RoundProgram, TimeDependentImplementation, Value};
use logrel_lang::ElaboratedSystem;
use logrel_obs::export::to_json_line;
use logrel_obs::{names, MetricsSink, NoopSink, Registry};
use logrel_query::{analyze_source, QueryDb};
use logrel_serve::proto::{parse_request, Request, Source};
use logrel_sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel_sim::{
    aggregate_campaign, plan_units, run_campaign_unit, BehaviorMap, CampaignConfig, CampaignUnit,
    ConstantEnvironment, MonitorConfig, ProbabilisticFaults, Scenario, Simulation,
};

use crate::check::{Symbols, FLIGHT_RING};
use crate::stats::{median, self_time};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (`layer.stage`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Position of the job in the replay; shared by all its spans.
    pub job: usize,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        self.spans[id].end = end;
        end - self.spans[id].start
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), job);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span (duration minus children's coverage).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time(s.start, s.end, c))
            .collect()
    }

    /// The spans as tab-separated lines (`job name start end parent`).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("job\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{parent}\n",
                s.job, s.name, s.start, s.end
            ));
        }
        out
    }
}

/// A compiled spec, as the engine caches it.
struct Compiled {
    sys: ElaboratedSystem,
    td: TimeDependentImplementation,
    calendar: Arc<Calendar>,
    program: Arc<RoundProgram>,
    analytic: Vec<Option<f64>>,
}

/// Timings and counts collected outside the span tree.
#[derive(Default)]
pub struct SideData {
    /// Per-query cold times (µs) on each miss job's elaborated system.
    pub per_query: BTreeMap<&'static str, Vec<f64>>,
    /// Per unit: (bit-sliced?, width, rounds, µs) — real units and
    /// kernel probes alike.
    pub units: Vec<(bool, usize, u64, f64)>,
    /// Widths of the real units only.
    pub real_widths: Vec<usize>,
    /// `Registry`-sink over `NoopSink` time of sampled units.
    pub sink_ratios: Vec<f64>,
    /// Per miss job: (queries, hits, recomputes, refine reuses).
    pub query_stats: Vec<(u64, u64, u64, u64)>,
    /// Source size (KiB) of each miss job.
    pub source_kb: Vec<f64>,
    /// Size (KiB) of each stream job's metrics line.
    pub line_kb: Vec<f64>,
}

/// A finished traced replay.
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    /// Side-pass data.
    pub side: SideData,
    /// Root span index of each replayed job, with whether it is a
    /// warm-up job.
    pub roots: Vec<(usize, bool)>,
    /// The metrics line each replayed stream job produced, by stream
    /// index.
    pub lines: Vec<(usize, String)>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Wall time of `f` in µs (its result is dropped).
fn timed_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    drop(f());
    t.elapsed().as_nanos() as f64 / 1e3
}

struct ReplayState {
    tracer: Tracer,
    side: SideData,
    cache: HashMap<String, Arc<Compiled>>,
    prior: Option<QueryDb>,
    /// The last miss's AST and elaborated system, for the per-query
    /// side pass once the job's root span has closed.
    deferred: Option<(logrel_lang::ast::Program, ElaboratedSystem)>,
}

impl ReplayState {
    /// The front half of a cache miss, in the engine's order.
    fn compile(&mut self, source: &str, root: usize, job: usize) -> Result<Compiled, String> {
        let t = &mut self.tracer;
        let program = t
            .time("lang.parse", root, job, || logrel_lang::parse(source))
            .map_err(|e| e.to_string())?;
        let elaborated = t
            .time("lang.elaborate", root, job, || {
                logrel_lang::elaborate(&program)
            })
            .map_err(|e| e.to_string())?;
        let prior = self.prior.take();
        let outcome = t.time("query.analyze", root, job, || {
            analyze_source(source, "<inline>", prior.as_ref(), &mut Registry::new())
        });
        if outcome.errors > 0 {
            return Err(outcome.stderr);
        }
        let s = outcome.stats;
        self.side
            .query_stats
            .push((s.queries, s.hits, s.recomputes, s.refine_reuses));
        self.prior = outcome.db;
        let sys = t
            .time("lang.compile", root, job, || logrel_lang::compile(source))
            .map_err(|e| e.to_string())?;
        let report = t
            .time("reliability.engine_srgs", root, job, || {
                logrel_reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
            })
            .map_err(|e| e.to_string())?;
        let analytic = sys
            .spec
            .communicator_ids()
            .map(|c| Some(report.communicator(c).get()))
            .collect();
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let (calendar, program_arc) = t
            .time("sim.try_new_observed", root, job, || {
                Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut NoopSink)
                    .map(|sim| sim.shared_program())
            })
            .map_err(|e| e.to_string())?;
        self.side.source_kb.push(source.len() as f64 / 1024.0);
        self.deferred = Some((program, elaborated));
        Ok(Compiled {
            sys,
            td,
            calendar,
            program: program_arc,
            analytic,
        })
    }

    /// Each analysis query's pass, timed cold on the job's elaborated
    /// system (outside the span tree).
    fn per_query_side_pass(&mut self, program: &logrel_lang::ast::Program, sys: &ElaboratedSystem) {
        let td = TimeDependentImplementation::from(sys.imp.clone());
        let (spec, arch, imp) = (&sys.spec, &sys.arch, &sys.imp);
        let times = [
            (
                "lint.spec_lints_us",
                timed_us(|| logrel_lint::spec_lints(program, sys).len()),
            ),
            (
                "lint.verify_generated_us",
                timed_us(|| logrel_lint::verify_generated(program, sys).len()),
            ),
            (
                "validate.certify_system_us",
                timed_us(|| logrel_validate::certify_system(spec, arch, &td).is_ok()),
            ),
            (
                "reliability.compute_srgs_us",
                timed_us(|| logrel_reliability::compute_srgs(spec, arch, imp).is_ok()),
            ),
            (
                "reliability.certify_us",
                timed_us(|| logrel_reliability::certify(spec, arch, imp, None).is_ok()),
            ),
            (
                "sched.analyze_us",
                timed_us(|| logrel_sched::analyze(spec, arch, imp).is_ok()),
            ),
        ];
        for (name, t) in times {
            self.side.per_query.entry(name).or_default().push(t);
        }
    }

    /// Replays one request line; returns the job's metrics line. The
    /// job's root span closes once the metrics line exists; the side
    /// passes run after it.
    fn job(&mut self, line: &str, job: usize, sample_sinks: bool) -> Result<String, String> {
        let root = self.tracer.open("job", None, job);
        let request = self
            .tracer
            .time("serve.parse_request", root, job, || parse_request(line))
            .map_err(|(_, e)| e)?;
        let Request::Job(request) = request else {
            return Err("not a job request".to_owned());
        };
        let (Source::Inline(spec), Source::Inline(scenario_text)) =
            (&request.spec, &request.scenario)
        else {
            return Err("benchmark jobs are inline".to_owned());
        };
        let compiled = match self.cache.get(spec) {
            Some(hit) => Arc::clone(hit),
            None => {
                let compiled = Arc::new(self.compile(spec, root, job)?);
                self.cache.insert(spec.clone(), Arc::clone(&compiled));
                compiled
            }
        };
        let c = &*compiled;
        let t = &mut self.tracer;
        let scenario = t
            .time("sim.scenario_parse", root, job, || {
                Scenario::parse_with(scenario_text, &Symbols(&c.sys))
            })
            .map_err(|e| e.to_string())?;
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: request.replications,
                rounds: request.rounds,
                base_seed: request.seed,
                threads: 1,
            },
            monitor: MonitorConfig::default(),
            lanes: request.lanes,
        };
        let units = t.time("sim.plan_units", root, job, || {
            plan_units(request.replications, config.lanes.width())
        });
        let host_count = c.sys.arch.host_count();
        let sim = Simulation::with_program(
            &c.sys.spec,
            &c.td,
            Arc::clone(&c.calendar),
            Arc::clone(&c.program),
        );
        let run = |unit: CampaignUnit, noop: bool| -> Result<(Vec<_>, f64), String> {
            let setup = |_rep: u64| ReplicationContext {
                behaviors: BehaviorMap::new(),
                environment: Box::new(ConstantEnvironment::new(Value::Float(1.0))),
                injector: Box::new(ProbabilisticFaults::from_architecture(&c.sys.arch)),
            };
            let started = Instant::now();
            let out = if noop {
                run_campaign_unit(
                    &sim,
                    &c.sys.spec,
                    &scenario,
                    host_count,
                    &config,
                    setup,
                    |_| NoopSink,
                    unit,
                )
                .map(|_| Vec::new())
            } else {
                run_campaign_unit(
                    &sim,
                    &c.sys.spec,
                    &scenario,
                    host_count,
                    &config,
                    setup,
                    |_| Registry::with_recorder(FLIGHT_RING),
                    unit,
                )
            };
            let elapsed = started.elapsed().as_nanos() as f64 / 1e3;
            out.map(|v| (v, elapsed)).map_err(|e| e.to_string())
        };
        let mut per_rep = Vec::with_capacity(request.replications as usize);
        for &unit in &units {
            let id = t.open(
                if unit.width == 1 {
                    "sim.run_unit.scalar"
                } else {
                    "sim.run_unit.bitsliced"
                },
                Some(root),
                job,
            );
            let (reps, _) = run(unit, false)?;
            let elapsed = us(t.close(id));
            per_rep.extend(reps);
            self.side
                .units
                .push((unit.width > 1, unit.width, request.rounds, elapsed));
            self.side.real_widths.push(unit.width);
        }
        let (_report, sinks) = t.time("sim.aggregate", root, job, || {
            aggregate_campaign(
                &c.sys.spec,
                &scenario,
                host_count,
                &config,
                &c.analytic,
                per_rep,
            )
        });
        let registry = t.time("obs.merge", root, job, || {
            let mut registry = Registry::with_recorder(FLIGHT_RING);
            registry.set_gauge(names::BITSLICE_LANES, request.lanes.width() as f64);
            registry.set_gauge(names::CAMPAIGN_SEED, request.seed as f64);
            for s in sinks {
                registry.merge(s);
            }
            registry
        });
        let line = t.time("obs.to_json_line", root, job, || to_json_line(&registry));
        t.close(root);

        // Side passes, outside the job's span tree.
        if let Some((program, elaborated)) = self.deferred.take() {
            self.per_query_side_pass(&program, &elaborated);
        }
        // A kernel the job did not use is probed once on the job's own
        // spec, scenario and rounds, so both kernels are measured on
        // every workload.
        for bitsliced in [false, true] {
            if !units.iter().any(|u| (u.width > 1) == bitsliced) {
                let width = if bitsliced { 64 } else { 1 };
                let (_, elapsed) = run(
                    CampaignUnit {
                        first_rep: 0,
                        width,
                    },
                    false,
                )?;
                self.side
                    .units
                    .push((bitsliced, width, request.rounds, elapsed));
            }
        }
        if sample_sinks {
            let (_, with_registry) = run(units[0], false)?;
            let (_, with_noop) = run(units[0], true)?;
            self.side.sink_ratios.push(with_registry / with_noop);
        }
        Ok(line)
    }
}

/// Replays `warmup` and then `stream` (request lines, with their stream
/// indices). Every `sink_every`-th stream job also measures the sink
/// overhead of its first unit.
pub fn replay(
    warmup: &[String],
    stream: &[(usize, &str)],
    sink_every: usize,
) -> Result<Replay, String> {
    let mut state = ReplayState {
        tracer: Tracer::new(),
        side: SideData::default(),
        cache: HashMap::new(),
        prior: None,
        deferred: None,
    };
    let mut roots = Vec::new();
    let mut lines = Vec::new();
    for (k, line) in warmup.iter().enumerate() {
        state.job(line, k, false)?;
        roots.push((
            state
                .tracer
                .spans
                .iter()
                .rposition(|s| s.parent.is_none())
                .expect("opened"),
            true,
        ));
    }
    for (k, &(index, line)) in stream.iter().enumerate() {
        let job = warmup.len() + k;
        let out = state.job(line, job, k % sink_every == 0)?;
        state.side.line_kb.push(out.len() as f64 / 1024.0);
        roots.push((
            state
                .tracer
                .spans
                .iter()
                .rposition(|s| s.parent.is_none())
                .expect("opened"),
            false,
        ));
        lines.push((index, out));
    }
    Ok(Replay {
        tracer: state.tracer,
        side: state.side,
        roots,
        lines,
    })
}

/// One row of the stage table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name.
    pub name: &'static str,
    /// Mean self time per stream job (µs).
    pub mean_self_us: f64,
    /// Share of the summed per-job totals.
    pub share: f64,
    /// Median per-job time of the stage over the jobs that ran it (µs),
    /// warm-up jobs included.
    pub median_us: f64,
}

/// The stage table over the stream jobs, and the median per-job total
/// (µs).
#[must_use]
pub fn stage_table(replay: &Replay) -> (Vec<StageRow>, f64) {
    let spans = &replay.tracer.spans;
    let selfs = replay.tracer.self_times();
    let stream_jobs: Vec<usize> = replay
        .roots
        .iter()
        .filter(|r| !r.1)
        .map(|r| spans[r.0].job)
        .collect();
    let is_stream = |job: usize| stream_jobs.binary_search(&job).is_ok();
    let totals: Vec<f64> = replay
        .roots
        .iter()
        .filter(|r| !r.1)
        .map(|r| us(spans[r.0].end - spans[r.0].start))
        .collect();
    let grand: f64 = totals.iter().sum();
    let mut self_sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut per_job: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        if is_stream(s.job) {
            *self_sum.entry(s.name).or_default() += us(own);
        }
        *per_job.entry(s.name).or_default().entry(s.job).or_default() += us(s.end - s.start);
    }
    let n = stream_jobs.len().max(1) as f64;
    let mut rows: Vec<StageRow> = per_job
        .iter()
        .map(|(&name, jobs)| {
            let sum = self_sum.get(name).copied().unwrap_or(0.0);
            StageRow {
                name,
                mean_self_us: sum / n,
                share: if grand > 0.0 { sum / grand } else { 0.0 },
                median_us: median(&jobs.values().copied().collect::<Vec<_>>()).unwrap_or(0.0),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.share.total_cmp(&a.share));
    (rows, median(&totals).unwrap_or(0.0))
}
