//! The campaign engine: compilation cache, admission control, and the
//! work-stealing replication pool.
//!
//! # Compilation cache
//!
//! Jobs are keyed by the FNV-1a hash of the spec source. A miss runs the
//! full front half once — incremental analysis ([`analyze_source`],
//! warm-started from the service's [`SharedDb`] so a *resubmitted edited
//! spec* reuses the refinement relation, and handing back the system it
//! elaborated so the spec is parsed and elaborated only once), then moves
//! the system into a [`CompiledSystem`] (which compiles the calendar and
//! round program once, self-certifying the kernel under the `validate`
//! feature, and computes the analytic SRGs) and caches it behind an
//! `Arc`. A hit shares everything; the only per-job work left is the
//! Monte-Carlo campaign itself.
//!
//! The cache lock is held only to look a key up or insert it. Each key
//! owns a single-flight slot: the first submitter compiles with the
//! cache unlocked, concurrent submitters of the *same* spec block on
//! that slot and share its result, and distinct specs compile in
//! parallel. A failed compile is not cached, but every submitter that
//! waited on it gets the same `S003` diagnosis.
//!
//! The cache holds at most [`COMPILE_CACHE_CAPACITY`] specs and evicts
//! the least recently used one; a hit refreshes recency, so the case
//! studies a fleet keeps resubmitting survive a burst of one-off edits.
//!
//! # Determinism
//!
//! Replications are sharded into [`CampaignUnit`]s and scattered over
//! the worker pool; results land in per-job slots indexed by unit and
//! are merged in unit (= replication) order. Seeds derive from
//! `(base_seed, replication)`, never from a worker id, so the exported
//! registry is **byte-identical at any worker count**. Parameter checks,
//! replication contexts and the registry prelude all come from
//! [`CompiledSystem`], the pipeline the `htlc` campaign commands run too;
//! a service job records no wall-clock `*_seconds` span gauges.
//!
//! # Backpressure and shutdown
//!
//! Admission is a bounded counter of in-flight jobs: the
//! `queue_capacity`-th concurrent submission is rejected with a
//! structured `S002` line instead of queueing unboundedly. Shutdown
//! flips `accepting` (new submissions get `S005`), drains in-flight
//! jobs, then stops the workers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use logrel_lang::subspec::FnvWriter;
use logrel_obs::export::to_json_line;
use logrel_obs::{names, MetricsSink, NoopSink, Registry};
use logrel_query::{analyze_source, LoadOutcome, SharedDb};
use logrel_sim::{
    campaign_registry, plan_units, CampaignConfig, CampaignUnit, CompiledSystem, LaneMode,
    RepStats, Scenario, FLIGHT_RING,
};

use crate::proto::{self, JobError};

/// How many compiled specs the service keeps: the three case studies
/// plus an edit session's worth of variants. An edit loop makes every
/// job a new key, so without a bound the cache grows by one spec per
/// edit. The bound is fixed rather than a knob because an evicted spec
/// costs only one recompile, whose result is byte-identical.
pub const COMPILE_CACHE_CAPACITY: usize = 64;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Maximum concurrently admitted jobs (queued or running). The next
    /// submission is rejected with `S002`.
    pub queue_capacity: usize,
    /// Flight-recorder capacity for job registries (0 disables); the
    /// default is the campaign ring, [`FLIGHT_RING`].
    pub recorder_capacity: usize,
    /// Optional `.logrel-cache` path: loaded at startup to warm the
    /// analysis db, atomically rewritten after each compile.
    pub cache_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 16,
            recorder_capacity: FLIGHT_RING,
            cache_path: None,
        }
    }
}

/// A job with its spec and scenario text already resolved.
#[derive(Debug, Clone)]
pub struct Job {
    /// Spec source text.
    pub spec_source: String,
    /// Label used in compile diagnostics (a path, or `<inline>`).
    pub spec_label: String,
    /// Scenario script text.
    pub scenario_source: String,
    /// Rounds per replication.
    pub rounds: u64,
    /// Replication count.
    pub replications: u64,
    /// Campaign base seed.
    pub seed: u64,
    /// Lane mode.
    pub lanes: LaneMode,
}

/// A successfully completed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The `logrel-metrics-v1` registry as one compact JSON line.
    pub metrics_line: String,
    /// Whether the spec came out of the compilation cache.
    pub cache_hit: bool,
}

/// One spec's compile, in flight or finished. Every submitter of the
/// spec shares the slot; exactly one of them runs the compile.
type CompileSlot = Arc<OnceLock<Result<Arc<CompiledSystem>, JobError>>>;

struct CacheEntry {
    slot: CompileSlot,
    last_used: u64,
}

/// The bounded compile cache: spec hash → compile slot, evicting the
/// least recently used entry once [`COMPILE_CACHE_CAPACITY`] is reached.
#[derive(Default)]
struct CompileCache {
    entries: HashMap<u64, CacheEntry>,
    clock: u64,
}

impl CompileCache {
    /// The slot for `key`, with its recency refreshed, or a new empty
    /// slot inserted for it. The flag tells whether an entry was evicted
    /// to make room.
    fn slot(&mut self, key: u64) -> (CompileSlot, bool) {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.clock;
            return (Arc::clone(&entry.slot), false);
        }
        let evict = self.entries.len() >= COMPILE_CACHE_CAPACITY;
        if evict {
            // A linear scan: the capacity is small and this runs once
            // per miss, next to a whole compile.
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&key, _)| key);
            if let Some(lru) = lru {
                self.entries.remove(&lru);
            }
        }
        let slot = CompileSlot::default();
        self.entries.insert(key, CacheEntry { slot: Arc::clone(&slot), last_used: self.clock });
        (slot, evict)
    }

    /// Drops `key` if it still maps to `slot`.
    fn forget(&mut self, key: u64, slot: &CompileSlot) {
        if self.entries.get(&key).is_some_and(|entry| Arc::ptr_eq(&entry.slot, slot)) {
            self.entries.remove(&key);
        }
    }
}

/// One unit of pool work: run `job.units[unit_index]`.
struct WorkItem {
    job: Arc<JobState>,
    unit_index: usize,
}

/// Per-unit results are strings on the error side so a worker panic can
/// be reported without widening [`logrel_sim::CampaignError`].
type UnitResult = Result<Vec<(RepStats, Registry)>, String>;

struct SlotBoard {
    results: Vec<Option<UnitResult>>,
    remaining: usize,
}

struct JobState {
    compiled: Arc<CompiledSystem>,
    scenario: Scenario,
    config: CampaignConfig,
    units: Vec<CampaignUnit>,
    slots: Mutex<SlotBoard>,
    done_cv: Condvar,
}

struct WorkQueue {
    items: VecDeque<WorkItem>,
    stop: bool,
}

struct Inner {
    config: ServeConfig,
    queue: Mutex<WorkQueue>,
    work_cv: Condvar,
    cache: Mutex<CompileCache>,
    db: SharedDb,
    metrics: Mutex<Registry>,
    active_jobs: AtomicUsize,
    accepting: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The campaign service engine. Cheap to clone; all clones share one
/// cache, one metrics registry and one worker pool.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Engine {
    /// Starts the worker pool and (optionally) warms the analysis db
    /// from `config.cache_path`.
    #[must_use]
    pub fn new(config: ServeConfig) -> Engine {
        let db = match &config.cache_path {
            Some(path) => match logrel_query::load(path) {
                LoadOutcome::Loaded(db) => SharedDb::with_db(*db),
                // Missing or invalid caches mean cold starts, never
                // failures — reads fail closed, writes will replace.
                LoadOutcome::Missing | LoadOutcome::Invalid(_) => SharedDb::new(),
            },
            None => SharedDb::new(),
        };
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        // The cache's size metrics read from the first `op:stats` on.
        let mut metrics = Registry::new();
        metrics.add(names::SERVE_CACHE_EVICTIONS, 0);
        metrics.set_gauge(names::SERVE_CACHE_ENTRIES, 0.0);
        let inner = Arc::new(Inner {
            config,
            queue: Mutex::new(WorkQueue { items: VecDeque::new(), stop: false }),
            work_cv: Condvar::new(),
            cache: Mutex::new(CompileCache::default()),
            db,
            metrics: Mutex::new(metrics),
            active_jobs: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        *lock(&inner.workers) = handles;
        Engine { inner }
    }

    /// Runs one job to completion (blocking the calling thread; the
    /// campaign itself runs on the pool). Errors carry the structured
    /// `S`-code the protocol layer renders.
    pub fn submit(&self, job: &Job) -> Result<JobOutcome, JobError> {
        let inner = &*self.inner;
        // Admission first, acceptance check second: `shutdown` flips
        // `accepting` and then waits for `active_jobs` to reach zero, so
        // any submission it cannot see here is guaranteed to observe the
        // flag and bail out (SeqCst store/load pairs on both sides).
        let admitted = inner.active_jobs.fetch_update(
            Ordering::SeqCst,
            Ordering::SeqCst,
            |n| (n < inner.config.queue_capacity).then_some(n + 1),
        );
        if admitted.is_err() {
            self.count_rejected();
            return Err(JobError::new(
                proto::S_QUEUE_FULL,
                format!(
                    "admission queue full ({} jobs in flight); resubmit later",
                    inner.config.queue_capacity
                ),
            ));
        }
        let guard = ActiveGuard { engine: self };
        guard.update_depth_gauge();
        if !inner.accepting.load(Ordering::SeqCst) {
            self.count_rejected();
            return Err(JobError::new(proto::S_SHUTDOWN, "service is shutting down".to_owned()));
        }
        {
            let mut metrics = lock(&inner.metrics);
            metrics.inc(names::SERVE_JOBS_ACCEPTED);
        }
        let result = self.run_admitted(job);
        match &result {
            Ok(_) => lock(&inner.metrics).inc(names::SERVE_JOBS_COMPLETED),
            Err(_) => self.count_rejected(),
        }
        drop(guard);
        result
    }

    fn run_admitted(&self, job: &Job) -> Result<JobOutcome, JobError> {
        let inner = &*self.inner;
        let (compiled, cache_hit) = self.compiled(&job.spec_source, &job.spec_label)?;
        let campaign_failed = |msg: String| JobError::new(proto::S_CAMPAIGN, msg);
        let scenario = Scenario::parse_with(&job.scenario_source, &*compiled)
            .map_err(|e| campaign_failed(e.to_string()))?;
        // Units shard over the service pool, so the batch's thread
        // count goes unused.
        let config = CampaignConfig::new(job.replications, job.rounds, job.seed, job.lanes);
        compiled.check(&scenario, &config).map_err(|e| campaign_failed(e.to_string()))?;
        let units = plan_units(job.replications, config.lanes.width());
        let state = Arc::new(JobState {
            compiled: Arc::clone(&compiled),
            scenario,
            config,
            slots: Mutex::new(SlotBoard {
                results: (0..units.len()).map(|_| None).collect(),
                remaining: units.len(),
            }),
            units,
            done_cv: Condvar::new(),
        });
        {
            let mut q = lock(&inner.queue);
            for unit_index in 0..state.units.len() {
                q.items.push_back(WorkItem { job: Arc::clone(&state), unit_index });
            }
        }
        inner.work_cv.notify_all();
        let mut board = lock(&state.slots);
        while board.remaining > 0 {
            board = state
                .done_cv
                .wait(board)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        // Merge in unit order == replication order: this is what makes
        // the export independent of worker count and scheduling.
        let mut per_rep = Vec::with_capacity(job.replications as usize);
        for slot in board.results.iter_mut() {
            match slot.take().expect("remaining == 0 implies every slot is filled") {
                Ok(unit_reps) => per_rep.extend(unit_reps),
                Err(msg) => return Err(campaign_failed(msg)),
            }
        }
        drop(board);
        let mut registry = campaign_registry(inner.config.recorder_capacity);
        compiled.aggregate(&state.scenario, &state.config, per_rep, &mut registry);
        Ok(JobOutcome { metrics_line: to_json_line(&registry), cache_hit })
    }

    /// The compiled form of `source`, from cache or compiled now, and
    /// whether it was a cache hit.
    fn compiled(&self, source: &str, label: &str) -> Result<(Arc<CompiledSystem>, bool), JobError> {
        let inner = &*self.inner;
        let mut hasher = FnvWriter::new();
        hasher.write_bytes(source.as_bytes());
        let key = hasher.finish();
        let slot = {
            let mut cache = lock(&inner.cache);
            let (slot, evicted) = cache.slot(key);
            let mut metrics = lock(&inner.metrics);
            if evicted {
                metrics.inc(names::SERVE_CACHE_EVICTIONS);
            }
            metrics.set_gauge(names::SERVE_CACHE_ENTRIES, cache.entries.len() as f64);
            slot
        };
        // Single flight, with the cache unlocked: whoever reaches the
        // slot first compiles, everyone else blocks here for its result.
        let mut compiled_here = false;
        let result = slot.get_or_init(|| {
            compiled_here = true;
            lock(&inner.metrics).inc(names::SERVE_CACHE_MISSES);
            self.compile(source, label).map(Arc::new)
        });
        match result {
            Ok(compiled) => {
                if !compiled_here {
                    lock(&inner.metrics).inc(names::SERVE_CACHE_HITS);
                }
                Ok((Arc::clone(compiled), !compiled_here))
            }
            Err(e) => {
                if compiled_here {
                    // Failures are not cached: the next submission
                    // compiles afresh.
                    let mut cache = lock(&inner.cache);
                    cache.forget(key, &slot);
                    lock(&inner.metrics)
                        .set_gauge(names::SERVE_CACHE_ENTRIES, cache.entries.len() as f64);
                }
                Err(e.clone())
            }
        }
    }

    fn compile(&self, source: &str, label: &str) -> Result<CompiledSystem, JobError> {
        let inner = &*self.inner;
        let compile_failed = |msg: String| JobError::new(proto::S_COMPILE, msg);
        // Incremental analysis first: lints + verification passes, warm
        // from whatever spec family this service has seen before.
        let prior = inner.db.snapshot();
        let mut query_metrics = Registry::new();
        let mut outcome = analyze_source(source, label, prior.as_deref(), &mut query_metrics);
        lock(&inner.metrics).merge(query_metrics);
        if outcome.errors > 0 {
            return Err(compile_failed(format!(
                "{} error(s) in `{label}`:\n{}",
                outcome.errors,
                outcome.stderr.trim_end()
            )));
        }
        if let Some(db) = outcome.db.take() {
            if let Some(path) = &inner.config.cache_path {
                // Atomic (write-temp-then-rename) persistence: concurrent
                // compiles never expose a torn cache file.
                let _ = logrel_query::save(&db, path);
            }
            inner.db.install(db);
        }
        // Analysis already elaborated the spec, unless it was a
        // digest-identical prior with every query green.
        let sys = match outcome.sys {
            Some(sys) => sys,
            None => logrel_lang::compile(source).map_err(|e| compile_failed(e.to_string()))?,
        };
        let compiled = CompiledSystem::new(sys.spec, sys.arch, sys.imp, &mut NoopSink)
            .map_err(|e| compile_failed(e.to_string()))?;
        compiled.analytic().map_err(|e| compile_failed(e.to_string()))?;
        Ok(compiled)
    }

    /// The service's own metrics registry as one JSON line.
    #[must_use]
    pub fn stats_line(&self) -> String {
        to_json_line(&lock(&self.inner.metrics))
    }

    /// A service counter's current value (test/assertion hook).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.inner.metrics).counter(name)
    }

    /// A service gauge's current value (test/assertion hook).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lock(&self.inner.metrics).gauge(name)
    }

    /// Counts a rejection that happened before admission (the protocol
    /// layer calls this for malformed lines).
    pub fn count_rejected(&self) {
        lock(&self.inner.metrics).inc(names::SERVE_JOBS_REJECTED);
    }

    /// Empties the compilation cache and the analysis db (cold-start
    /// hook for benchmarks).
    pub fn clear_cache(&self) {
        lock(&self.inner.cache).entries.clear();
        lock(&self.inner.metrics).set_gauge(names::SERVE_CACHE_ENTRIES, 0.0);
        self.inner.db.clear();
    }

    /// Stops accepting new jobs; in-flight jobs keep running.
    pub fn begin_shutdown(&self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain in-flight jobs, stop and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        let inner = &*self.inner;
        self.begin_shutdown();
        while inner.active_jobs.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let mut q = lock(&inner.queue);
            q.stop = true;
        }
        inner.work_cv.notify_all();
        let handles = std::mem::take(&mut *lock(&inner.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn finish_job(&self) {
        self.inner.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the in-flight count (and the depth gauge) on every exit
/// path out of an admitted submission.
struct ActiveGuard<'a> {
    engine: &'a Engine,
}

impl ActiveGuard<'_> {
    fn update_depth_gauge(&self) {
        let depth = self.engine.inner.active_jobs.load(Ordering::SeqCst);
        lock(&self.engine.inner.metrics).set_gauge(names::SERVE_QUEUE_DEPTH, depth as f64);
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.engine.finish_job();
        self.update_depth_gauge();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let item = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(item) = q.items.pop_front() {
                    break item;
                }
                if q.stop {
                    return;
                }
                q = inner
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let job = &*item.job;
        let unit = job.units[item.unit_index];
        let capacity = inner.config.recorder_capacity;
        let run = || job.compiled.run_unit(&job.scenario, &job.config, capacity, unit);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .map(|units| units.map_err(|e| e.to_string()))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_owned());
                Err(format!("worker panicked: {msg}"))
            });
        let mut board = lock(&job.slots);
        board.results[item.unit_index] = Some(result);
        board.remaining -= 1;
        if board.remaining == 0 {
            job.done_cv.notify_all();
        }
    }
}
