//! Integration tests for the campaign job service (`logrel-serve`).
//!
//! The contract under test is the service invariant: a served job's
//! metrics line is byte-identical at any worker count, equal to the
//! library campaign pipeline run standalone, and the compilation cache
//! changes cost (compile counts) but never results.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use logrel::obs::export::to_json_line;
use logrel::obs::{names, MetricsSink, Registry};
use logrel::serve::{proto, Engine, Job, JobOutcome, ServeConfig, Server, COMPILE_CACHE_CAPACITY};
use logrel::sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel::sim::{
    run_campaign_observed, BehaviorMap, CampaignConfig, ConstantEnvironment, LaneMode,
    MonitorConfig, ProbabilisticFaults, Scenario, ScenarioSymbols, Simulation,
};

const SPEC_PATH: &str = "examples/htl/infusion_pump.htl";
const SCENARIO_PATH: &str = "examples/scenarios/pump_outage.scn";
const ROUNDS: u64 = 300;
const REPS: u64 = 8;
const SEED: u64 = 0xFEED;

fn job() -> Job {
    Job {
        spec_source: std::fs::read_to_string(SPEC_PATH).unwrap(),
        spec_label: SPEC_PATH.to_owned(),
        scenario_source: std::fs::read_to_string(SCENARIO_PATH).unwrap(),
        rounds: ROUNDS,
        replications: REPS,
        seed: SEED,
        lanes: LaneMode::Auto,
    }
}

fn engine(workers: usize, queue_capacity: usize) -> Engine {
    Engine::new(ServeConfig {
        workers,
        queue_capacity,
        recorder_capacity: 256,
        cache_path: None,
    })
}

struct Symbols<'a>(&'a logrel::lang::ElaboratedSystem);

impl ScenarioSymbols for Symbols<'_> {
    fn host(&self, name: &str) -> Option<logrel::core::HostId> {
        self.0.arch.find_host(name)
    }
    fn communicator(&self, name: &str) -> Option<logrel::core::CommunicatorId> {
        self.0.spec.find_communicator(name)
    }
}

/// The same campaign run through the library pipeline the way `htlc
/// inject --metrics` runs it, minus the wall-clock span gauges a
/// service job never records.
fn library_reference_line() -> String {
    library_reference(&job())
}

/// [`library_reference_line`] for any job.
fn library_reference(job: &Job) -> String {
    let sys = logrel::lang::compile(&job.spec_source).unwrap();
    let scenario = Scenario::parse_with(&job.scenario_source, &Symbols(&sys)).unwrap();
    let analytic_report =
        logrel::reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp).unwrap();
    let analytic: Vec<Option<f64>> = sys
        .spec
        .communicator_ids()
        .map(|c| Some(analytic_report.communicator(c).get()))
        .collect();
    let td = logrel::core::TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::try_new(&sys.spec, &sys.arch, &td).unwrap();
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: job.replications,
            rounds: job.rounds,
            base_seed: job.seed,
            threads: 0,
        },
        monitor: MonitorConfig::default(),
        lanes: job.lanes,
    };
    let mut registry = Registry::with_recorder(256);
    registry.set_gauge(names::BITSLICE_LANES, job.lanes.width() as f64);
    registry.set_gauge(names::CAMPAIGN_SEED, job.seed as f64);
    let setup = |_rep: u64| ReplicationContext {
        behaviors: BehaviorMap::new(),
        environment: Box::new(ConstantEnvironment::new(logrel::core::Value::Float(1.0))),
        injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
    };
    run_campaign_observed(
        &sim,
        &sys.spec,
        &scenario,
        sys.arch.host_count(),
        &config,
        setup,
        &analytic,
        &mut registry,
        256,
    )
    .unwrap();
    to_json_line(&registry)
}

fn submit_ok(engine: &Engine, job: &Job) -> JobOutcome {
    engine.submit(job).expect("job should succeed")
}

#[test]
fn served_metrics_are_byte_identical_across_worker_counts_and_match_the_library() {
    let reference = library_reference_line();
    for workers in [1, 4] {
        let engine = engine(workers, 4);
        let out = submit_ok(&engine, &job());
        assert_eq!(
            out.metrics_line, reference,
            "served output must be byte-identical to the standalone campaign \
             pipeline at {workers} worker(s)"
        );
        engine.shutdown();
    }
}

#[test]
fn resubmitted_unchanged_spec_performs_zero_recompilations() {
    let engine = engine(2, 4);
    let first = submit_ok(&engine, &job());
    assert!(!first.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 0);

    // Same bytes again: the spec must come straight out of the cache —
    // zero recompilations, counter-asserted.
    let second = submit_ok(&engine, &job());
    assert!(second.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 1);
    assert_eq!(first.metrics_line, second.metrics_line);

    // A different seed is a different job but the same compiled spec.
    let mut reseeded = job();
    reseeded.seed = SEED + 1;
    let third = submit_ok(&engine, &reseeded);
    assert!(third.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1);
    assert_ne!(third.metrics_line, second.metrics_line);

    assert_eq!(engine.counter(names::SERVE_JOBS_COMPLETED), 3);
    assert_eq!(engine.counter(names::SERVE_JOBS_REJECTED), 0);
    engine.shutdown();
}

#[test]
fn overfull_queue_rejects_with_a_structured_s002() {
    // One worker, admission capacity one: while a long job is in
    // flight, the next submission must be rejected, not queued.
    let engine = engine(1, 1);
    let slow = Job {
        rounds: 20_000,
        replications: 32,
        ..job()
    };
    std::thread::scope(|scope| {
        let inflight = {
            let engine = engine.clone();
            scope.spawn(move || engine.submit(&slow).expect("the admitted job succeeds"))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while engine.gauge(names::SERVE_QUEUE_DEPTH) != Some(1.0) {
            assert!(
                std::time::Instant::now() < deadline,
                "in-flight job never became visible"
            );
            std::thread::yield_now();
        }
        let err = engine.submit(&job()).expect_err("queue is full");
        assert_eq!(err.code, proto::S_QUEUE_FULL);
        assert!(err.message.contains("resubmit"), "{}", err.message);
        assert_eq!(engine.counter(names::SERVE_JOBS_REJECTED), 1);
        inflight.join().unwrap();
    });
    assert_eq!(engine.gauge(names::SERVE_QUEUE_DEPTH), Some(0.0));
    assert_eq!(engine.counter(names::SERVE_JOBS_COMPLETED), 1);
    engine.shutdown();
}

#[test]
fn shutdown_rejects_new_jobs_with_s005() {
    let engine = engine(1, 4);
    engine.begin_shutdown();
    let err = engine.submit(&job()).expect_err("draining service takes no jobs");
    assert_eq!(err.code, proto::S_SHUTDOWN);
    engine.shutdown();
}

#[test]
fn malformed_lines_are_rejected_without_killing_the_service() {
    let engine = engine(1, 4);
    let responses = logrel::serve::process_line(&engine, "this is not json");
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S001\""), "{}", responses[0]);
    // The next (valid) request on the same service still succeeds.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"ok","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":50,"replications":2,"seed":1}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 2);
    assert!(responses[0].starts_with(r#"{"schema":"logrel-metrics-v1""#));
    assert!(responses[1].contains("\"status\":\"done\""));
    // Degenerate campaign parameters get the structured S004, and the
    // service survives that too.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"zero","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","replications":0}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S004\""), "{}", responses[0]);
    assert!(responses[0].contains("replication"), "{}", responses[0]);
    // A line nested deeper than the parser's stack can recurse is a
    // malformed request, not a stack overflow.
    let responses = logrel::serve::process_line(&engine, &"[".repeat(200_000));
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S001\""), "{}", responses[0]);
    // More replications than the campaign cap is rejected before any
    // per-replication allocation.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"huge","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","replications":18446744073709551615}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"code\":\"S004\""), "{}", responses[0]);
    assert!(responses[0].contains("18446744073709551615"), "{}", responses[0]);
    // The service still serves.
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"after","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":50,"replications":2,"seed":1}}"#
    );
    let responses = logrel::serve::process_line(&engine, &line);
    assert_eq!(responses.len(), 2);
    assert!(responses[1].contains("\"status\":\"done\""), "{}", responses[1]);
    engine.shutdown();
}

/// A parsed metrics document without its wall-clock `*_seconds` keys.
fn without_seconds(doc: proto::Json) -> proto::Json {
    match doc {
        proto::Json::Obj(fields) => proto::Json::Obj(
            fields
                .into_iter()
                .filter(|(key, _)| !key.ends_with("_seconds"))
                .map(|(key, value)| (key, without_seconds(value)))
                .collect(),
        ),
        proto::Json::Arr(items) => {
            proto::Json::Arr(items.into_iter().map(without_seconds).collect())
        }
        other => other,
    }
}

/// `htlc inject --metrics` and a served job export the same registry,
/// up to the `*_seconds` span gauges only the CLI records. The partition
/// scenario raises alarms, so the flight-recorder dumps are compared too.
#[test]
fn htlc_inject_metrics_equal_the_served_line() {
    const PARTITION: &str = "examples/scenarios/partition.scn";
    let dir = std::env::temp_dir().join(format!("logrel-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = engine(2, 4);
    for (flag, lanes) in [(None, LaneMode::Auto), (Some("off"), LaneMode::Off)] {
        let prom = dir.join(format!("m-{}.prom", flag.unwrap_or("auto")));
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_htlc"));
        cmd.arg("inject").arg("--metrics").arg(&prom);
        if let Some(flag) = flag {
            cmd.args(["--lanes", flag]);
        }
        let status = cmd
            .args([SPEC_PATH, PARTITION])
            .args([3_000, SEED, REPS].map(|n| n.to_string()))
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "htlc inject failed: {status}");
        let json = std::fs::read_to_string(prom.with_extension("prom.json")).unwrap();
        let cli = without_seconds(proto::parse_json(&json).unwrap());
        assert!(
            matches!(cli.get("dumps"), Some(proto::Json::Arr(dumps)) if !dumps.is_empty()),
            "the campaign must dump the flight recorder"
        );
        let served = Job {
            scenario_source: std::fs::read_to_string(PARTITION).unwrap(),
            rounds: 3_000,
            lanes,
            ..job()
        };
        let served = submit_ok(&engine, &served).metrics_line;
        assert_eq!(cli, without_seconds(proto::parse_json(&served).unwrap()), "lanes {lanes:?}");
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet of services sharing one `.logrel-cache` path: concurrent
/// compiles race their atomic cache rewrites, and a reader must never
/// observe a torn file (the temp-file-plus-rename fix under test).
#[test]
fn engines_sharing_a_cache_file_never_tear_it() {
    let dir = std::env::temp_dir().join(format!(
        "logrel-serve-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("fleet.logrel-cache");
    let cache_path = cache_path.to_str().unwrap().to_owned();

    let base_spec = std::fs::read_to_string("examples/htl/infusion_pump.htl").unwrap();
    let scenario = std::fs::read_to_string(SCENARIO_PATH).unwrap();
    let engines: Vec<Engine> = (0..3)
        .map(|_| {
            Engine::new(ServeConfig {
                workers: 2,
                queue_capacity: 8,
                recorder_capacity: 0,
                cache_path: Some(cache_path.clone()),
            })
        })
        .collect();
    let torn_reads = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (e, engine) in engines.iter().enumerate() {
            for i in 0..2 {
                let (base_spec, scenario) = (&base_spec, &scenario);
                scope.spawn(move || {
                    // Distinct program names make distinct content
                    // hashes: every submission compiles (and rewrites
                    // the shared cache file).
                    let spec = base_spec
                        .replace("program infusion_pump", &format!("program pump_{e}_{i}"));
                    let out = engine
                        .submit(&Job {
                            spec_source: spec,
                            spec_label: format!("fleet-{e}-{i}.htl"),
                            scenario_source: scenario.clone(),
                            rounds: 50,
                            replications: 2,
                            seed: 9,
                            lanes: LaneMode::Auto,
                        })
                        .expect("fleet job succeeds");
                    assert!(!out.cache_hit);
                });
            }
        }
        // A concurrent reader hammering the shared path: atomic renames
        // mean it sees either no file or a valid one, never garbage.
        let (cache_path, torn_reads) = (&cache_path, &torn_reads);
        scope.spawn(move || {
            for _ in 0..400 {
                if let logrel::query::LoadOutcome::Invalid(_) = logrel::query::load(cache_path) {
                    torn_reads.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(torn_reads.load(Ordering::Relaxed), 0, "reader saw a torn cache file");
    assert!(
        matches!(logrel::query::load(&cache_path), logrel::query::LoadOutcome::Loaded(_)),
        "final cache file must be valid"
    );
    for engine in engines {
        engine.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The base job with its program renamed: a distinct spec (a distinct
/// cache key) that compiles and runs exactly like the original.
fn renamed(name: &str) -> Job {
    let mut job = Job { rounds: 20, replications: 1, ..job() };
    job.spec_source = job
        .spec_source
        .replace("program infusion_pump", &format!("program {name}"));
    job
}

#[test]
fn concurrent_submissions_of_one_new_spec_compile_it_once() {
    let engine = engine(2, 8);
    let barrier = Barrier::new(4);
    let lines: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    submit_ok(&engine, &job()).metrics_line
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 1, "single flight");
    assert_eq!(engine.counter(names::SERVE_CACHE_HITS), 3);
    assert!(lines.iter().all(|line| *line == lines[0]));
    assert_eq!(lines[0], library_reference_line());
    engine.shutdown();
}

#[test]
fn distinct_specs_compiled_concurrently_match_their_sequential_references() {
    let read = |path: &str| std::fs::read_to_string(path).unwrap();
    let spec_job = |spec: &str, scenario: String| Job {
        spec_source: read(spec),
        spec_label: spec.to_owned(),
        scenario_source: scenario,
        rounds: 200,
        replications: 6,
        seed: 17,
        lanes: LaneMode::Auto,
    };
    let mut variant = renamed("pump_variant");
    variant.scenario_source = read("examples/scenarios/partition.scn");
    let jobs = [
        job(),
        spec_job(
            "assets/three_tank.htl",
            "flaky host=h2 from=0 until=50000 up=0.9\n".to_owned(),
        ),
        spec_job("assets/steer_by_wire.htl", read("examples/scenarios/steer_monitor_miss.scn")),
        variant,
    ];
    let engine = engine(2, 8);
    let barrier = Barrier::new(jobs.len());
    let served: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|job| {
                let (engine, barrier) = (&engine, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    submit_ok(engine, job).metrics_line
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), 4);
    for (job, line) in jobs.iter().zip(&served) {
        assert_eq!(*line, library_reference(job), "{}", job.spec_label);
    }
    engine.shutdown();
}

#[test]
fn an_evicted_spec_recompiles_to_a_byte_identical_line() {
    let engine = engine(2, 4);
    let first = renamed("pump_first");
    let before = submit_ok(&engine, &first);
    assert!(!before.cache_hit);
    for i in 0..COMPILE_CACHE_CAPACITY {
        submit_ok(&engine, &renamed(&format!("pump_fill_{i}")));
    }
    let cap = COMPILE_CACHE_CAPACITY as u64;
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), cap + 1);
    assert_eq!(engine.counter(names::SERVE_CACHE_EVICTIONS), 1);
    assert_eq!(engine.gauge(names::SERVE_CACHE_ENTRIES), Some(cap as f64));
    // The first spec was the least recently used: it was evicted and
    // compiles again, to the same bytes.
    let after = submit_ok(&engine, &first);
    assert!(!after.cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), cap + 2);
    assert_eq!(after.metrics_line, before.metrics_line);
    assert_eq!(engine.gauge(names::SERVE_CACHE_ENTRIES), Some(cap as f64));
    engine.shutdown();
}

#[test]
fn a_spec_hit_between_inserts_survives_eviction() {
    let engine = engine(2, 4);
    let hot = renamed("pump_hot");
    submit_ok(&engine, &hot);
    // Fill the cache exactly: `hot` plus capacity − 1 others.
    for i in 1..COMPILE_CACHE_CAPACITY {
        submit_ok(&engine, &renamed(&format!("pump_cold_{i}")));
    }
    assert_eq!(engine.counter(names::SERVE_CACHE_EVICTIONS), 0);
    assert!(submit_ok(&engine, &hot).cache_hit, "a hit refreshes recency");
    // One more spec evicts the least recently used one: `pump_cold_1`.
    submit_ok(&engine, &renamed("pump_overflow"));
    assert_eq!(engine.counter(names::SERVE_CACHE_EVICTIONS), 1);
    let misses = engine.counter(names::SERVE_CACHE_MISSES);
    assert!(submit_ok(&engine, &hot).cache_hit, "the hot spec survived");
    assert!(submit_ok(&engine, &renamed("pump_cold_2")).cache_hit);
    assert_eq!(engine.counter(names::SERVE_CACHE_MISSES), misses);
    assert!(!submit_ok(&engine, &renamed("pump_cold_1")).cache_hit);
    engine.shutdown();
}

#[test]
fn concurrent_submissions_of_a_broken_spec_share_one_s003() {
    let engine = engine(2, 8);
    let broken = Job {
        spec_source: job().spec_source.replace("map {", "mapp {"),
        ..job()
    };
    let barrier = Barrier::new(2);
    let errors: Vec<proto::JobError> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.submit(&broken).expect_err("the spec does not parse")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(errors[0].code, proto::S_COMPILE);
    assert_eq!(errors[0], errors[1], "every waiter gets the same diagnosis");
    // Failures are not cached; the service carries on.
    assert_eq!(engine.gauge(names::SERVE_CACHE_ENTRIES), Some(0.0));
    let out = submit_ok(&engine, &job());
    assert!(!out.cache_hit);
    assert_eq!(engine.counter(names::SERVE_JOBS_REJECTED), 2);
    engine.shutdown();
}

/// A request's response lines must leave in one write. When a line and
/// its newline went out as two writes, Nagle's algorithm held the
/// newline until the client's delayed ACK, a fixed ~40 ms on every
/// response; the job itself takes about a millisecond.
#[test]
fn warm_jobs_over_tcp_return_without_a_delayed_ack_stall() {
    let server = Server::start(engine(2, 4), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let line = format!(
        r#"{{"schema":"logrel-job-v1","id":"warm","spec_path":"{SPEC_PATH}","scenario_path":"{SCENARIO_PATH}","rounds":1,"replications":1,"seed":3}}"#
    );
    let mut round_trip = |response: &mut Vec<u8>| {
        response.clear();
        let start = Instant::now();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        for _ in 0..2 {
            reader.read_until(b'\n', response).unwrap();
        }
        start.elapsed()
    };
    let mut response = Vec::new();
    round_trip(&mut response); // compiles the spec
    let mut times: Vec<Duration> = (0..21).map(|_| round_trip(&mut response)).collect();
    times.sort();
    assert!(
        times[10] < Duration::from_millis(20),
        "median warm round trip {:?} (all: {times:?})",
        times[10]
    );
    // The socket's bytes are the bytes the stdin frontend writes.
    let mut piped = Vec::new();
    logrel::serve::respond(server.engine(), &line, &mut piped).unwrap();
    assert_eq!(String::from_utf8(piped).unwrap(), String::from_utf8(response).unwrap());
    drop(writer);
    server.shutdown();
}

/// A valid job line, the seed of the mutation arm below.
const VALID_LINE: &str = r#"{"schema":"logrel-job-v1","id":"f","spec":"program p {}","scenario":"crash host=h at=1\n","rounds":10,"replications":2,"seed":3,"lanes":"off"}"#;

/// `bytes` with each `(position, byte, op)` edit applied: op 0
/// overwrites, 1 inserts, 2 deletes. Positions wrap around the length.
fn mutate(mut bytes: Vec<u8>, edits: Vec<(usize, u8, u8)>) -> Vec<u8> {
    for (at, byte, op) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

/// `depth` opening brackets (arrays, objects, or both alternating),
/// optionally followed by a value and the matching closers.
fn nest(depth: usize, kind: u8, closed: bool) -> String {
    let open = |i: usize| match (kind, i % 2) {
        (0, _) | (2, 0) => "[",
        _ => "{\"k\":",
    };
    let mut line: String = (0..depth).map(open).collect();
    if closed {
        line.push('1');
        for i in (0..depth).rev() {
            line.push(if open(i) == "[" { ']' } else { '}' });
        }
    }
    line
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// `parse_request` answers every line — random bytes, mutations of a
    /// valid request, deep nests — with a request or a diagnosis, and
    /// never panics or overflows the stack.
    #[test]
    fn parse_request_never_panics(
        random in proptest::collection::vec(0u8..=255, 0..200),
        edits in proptest::collection::vec((0usize..400, 0u8..=255, 0u8..3), 1..8),
        (depth, kind, closed) in (1usize..100_000, 0u8..3, proptest::prelude::any::<bool>()),
    ) {
        let _ = proto::parse_request(&String::from_utf8_lossy(&random));
        let mutated = mutate(VALID_LINE.as_bytes().to_vec(), edits);
        let _ = proto::parse_request(&String::from_utf8_lossy(&mutated));
        let deep = nest(depth, kind, closed);
        proptest::prop_assert!(proto::parse_request(&deep).is_err());
        let shallow = nest(depth % 3 + 1, kind, true);
        proptest::prop_assert!(proto::parse_json(&shallow).is_ok(), "{}", shallow);
    }
}

/// A request line that is not UTF-8 is a malformed request: the
/// connection stays open and the next line is served.
#[test]
fn a_non_utf8_line_is_rejected_and_the_connection_survives() {
    let server = Server::start(engine(1, 4), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"\xff\xfe{\n").unwrap();
    writer.write_all(b"{\"schema\":\"logrel-job-v1\",\"id\":\"s\",\"op\":\"stats\"}\n").unwrap();
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].contains("\"code\":\"S001\""), "{}", lines[0]);
    assert!(lines[1].starts_with(r#"{"schema":"logrel-metrics-v1""#), "{}", lines[1]);
    assert!(lines[2].contains("\"id\":\"s\"") && lines[2].contains("\"done\""), "{}", lines[2]);
    drop(writer);
    server.shutdown();
}
