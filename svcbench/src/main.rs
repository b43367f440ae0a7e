//! End-to-end and per-layer benchmark of the logrel campaign service.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <edit_resubmit|campaign_wide|campaign_narrow> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the
//! end-to-end metrics, with `--trace 1` the per-layer ones (after a
//! traced replay of the job stream); the last stdout line is always one
//! JSON object `{correct, attempted, failed, metrics}`. See
//! `svcbench/README.md` for the workloads and metrics.

mod check;
mod gen;
mod load;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use gen::{Generator, Rng, Workload};
use stats::{median, percentile};

/// How many times a run sets the service up; `setup_s` is the median.
const SETUPS: usize = 5;

/// Per-workload sizing.
struct Plan {
    /// Leading jobs rendered during set-up, always sent, digested and
    /// sampled for checks.
    digest_jobs: usize,
    /// Jobs of the digest prefix compared against the library path.
    library_samples: usize,
    /// Stream jobs replayed by the traced run.
    traced_jobs: usize,
    /// Every n-th traced job also measures sink overhead.
    sink_every: usize,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::EditResubmit => Plan {
            digest_jobs: 200,
            library_samples: 8,
            traced_jobs: 120,
            sink_every: 8,
        },
        Workload::CampaignWide => Plan {
            digest_jobs: 24,
            library_samples: 3,
            traced_jobs: 12,
            sink_every: 3,
        },
        Workload::CampaignNarrow => Plan {
            digest_jobs: 48,
            library_samples: 4,
            traced_jobs: 24,
            sink_every: 2,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// `nproc`, `rustc -V`, the CPU model and whether the round-program
/// self-certification (`validate` feature) is compiled in.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    // Self-certification records its span gauge only when compiled in.
    let sys = logrel_lang::compile(gen::STEER_BY_WIRE).expect("case study compiles");
    let td = logrel_core::TimeDependentImplementation::from(sys.imp.clone());
    let mut probe = logrel_obs::Registry::new();
    let validate = logrel_sim::Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut probe)
        .is_ok()
        && probe.gauge(logrel_obs::names::CERTIFY_SECONDS).is_some();
    let esc = logrel_serve::proto::escape;
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"cpu\":\"{}\",\"validate\":{validate},\"workers\":{},\"clients\":{}}}",
        esc(&rustc),
        esc(&cpu),
        load::WORKERS,
        load::CLIENTS
    )
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts the service, sends the warm-up jobs and renders the stream's
/// checked prefix. Returns the server, the stream and the prefix.
fn set_up(
    workload: Workload,
    seed: u64,
    prefix: usize,
) -> Result<(logrel_serve::Server, Generator, Vec<String>), String> {
    let server = load::start_server().map_err(|e| format!("server start: {e}"))?;
    let mut client = load::Client::connect(&server).map_err(|e| format!("connect: {e}"))?;
    for (k, job) in gen::warmup(workload).iter().enumerate() {
        let id = format!("warm{k}");
        let lines = client.call(&job.request_line(&id))?;
        check::check_response(&id, &lines).map_err(|e| format!("warm-up: {e}"))?;
    }
    let stream = Generator::new(workload, seed);
    let requests = (0..prefix).map(|i| stream.request(i)).collect();
    Ok((server, stream, requests))
}

fn metric(
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
    name: &str,
    value: f64,
    unit: &'static str,
) {
    metrics.insert(name.to_owned(), (value, unit));
}

fn render(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("svcbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let plan = plan(args.workload);
    println!("fingerprint: {}", fingerprint());

    // Set-up, repeated; the last server is the one measured.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut current: Option<(logrel_serve::Server, Generator, Vec<String>)> = None;
    for _ in 0..SETUPS {
        if let Some((server, _, _)) = current.take() {
            server.shutdown();
        }
        let started = Instant::now();
        current = Some(set_up(args.workload, args.seed, plan.digest_jobs)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let (server, stream, requests) = current.expect("set up at least once");
    let engine = server.engine().clone();
    let counter = |name| engine.counter(name);
    let (hits0, misses0) = (
        counter(logrel_obs::names::SERVE_CACHE_HITS),
        counter(logrel_obs::names::SERVE_CACHE_MISSES),
    );

    // The measured window: tracing off.
    let window = load::run(&server, &stream, &requests, args.seconds);
    let cache_hits = counter(logrel_obs::names::SERVE_CACHE_HITS) - hits0;
    let cache_misses = counter(logrel_obs::names::SERVE_CACHE_MISSES) - misses0;
    server.shutdown();

    // Output checks. A job fails at most once, whatever it failed on.
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    let mut failed_jobs: BTreeSet<usize> = BTreeSet::new();
    let mut fail = |index: usize, why: String| {
        if failed_jobs.insert(index) {
            *failures.entry(why).or_default() += 1;
        }
    };
    let mut served_lines: BTreeMap<usize, &str> = BTreeMap::new();
    for s in &window.served {
        if let Err(why) = &s.outcome {
            fail(s.index, why.clone());
        }
        if let Some(line) = &s.metrics_line {
            served_lines.insert(s.index, line);
        }
    }
    let stripped = |index: usize| {
        served_lines
            .get(&index)
            .and_then(|l| check::strip_seconds(l).ok())
    };
    let mut digest = check::FNV_START;
    let mut prefix_complete = true;
    for index in 0..plan.digest_jobs {
        match stripped(index) {
            Some(line) => {
                digest = check::fnv1a(digest, line.as_bytes());
                digest = check::fnv1a(digest, b"\n");
            }
            None => prefix_complete = false,
        }
    }
    let mut rng = Rng::new(args.seed ^ 0xC4EC);
    for _ in 0..plan.library_samples {
        let index = rng.below(plan.digest_jobs);
        let Some(served) = stripped(index) else {
            continue;
        };
        let job = stream.job(index);
        if check::library_line(&job).as_ref() != Ok(&served) {
            fail(index, "differs from the library path".to_owned());
        }
        if args.workload == Workload::EditResubmit
            && index > 0
            && !check::warm_equals_cold(&stream.job(index - 1).spec, &job.spec)
        {
            fail(index, "warm analysis differs from cold".to_owned());
        }
    }

    let replay = if args.trace {
        Some(trace_run(args, &plan, &requests, &served_lines, &mut fail)?)
    } else {
        None
    };
    let ok_jobs: Vec<&load::Served> = window
        .served
        .iter()
        .filter(|s| !failed_jobs.contains(&s.index))
        .collect();
    let mut metrics = BTreeMap::new();
    if let Some(replay) = &replay {
        layer_metrics(
            &mut metrics,
            replay,
            &window,
            cache_hits,
            cache_misses,
            &ok_jobs,
        );
    } else {
        let elapsed = window.elapsed.as_secs_f64();
        let latencies: Vec<f64> = ok_jobs
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        let rep_rounds: u64 = ok_jobs
            .iter()
            .map(|s| stream.job(s.index).rep_rounds())
            .sum();
        let attempted = window.served.len().max(1) as f64;
        metric(
            &mut metrics,
            "jobs_per_s",
            ok_jobs.len() as f64 / elapsed,
            "1/s",
        );
        metric(
            &mut metrics,
            "job_latency_p50_ms",
            median(&latencies).unwrap_or(f64::NAN),
            "ms",
        );
        metric(
            &mut metrics,
            "replication_rounds_per_s",
            rep_rounds as f64 / elapsed,
            "1/s",
        );
        metric(
            &mut metrics,
            "job_success_ratio",
            ok_jobs.len() as f64 / attempted,
            "ratio",
        );
        metric(
            &mut metrics,
            "setup_s",
            median(&setup_times).unwrap_or(f64::NAN),
            "s",
        );
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
        println!(
            "window: {} jobs attempted in {elapsed:.3} s, {} latency samples",
            window.served.len(),
            latencies.len()
        );
    }

    let failed = failed_jobs.len();
    for (why, n) in &failures {
        println!("failure: {n} x {why}");
    }
    if prefix_complete {
        println!(
            "digest: {digest:016x} over the first {} jobs",
            plan.digest_jobs
        );
    } else {
        println!(
            "digest: incomplete, a job of the first {} failed",
            plan.digest_jobs
        );
    }
    let correct = failed == 0 && prefix_complete;
    println!(
        "{}",
        render(correct, window.served.len().max(1), failed, &metrics)
    );
    Ok(())
}

/// The traced run: replays the warm-up jobs and the first
/// `plan.traced_jobs` stream jobs, prints the stage table and writes the
/// spans out. Replayed lines must equal the served ones.
fn trace_run(
    args: &Args,
    plan: &Plan,
    requests: &[String],
    served_lines: &BTreeMap<usize, &str>,
    fail: &mut impl FnMut(usize, String),
) -> Result<trace::Replay, String> {
    let warmup: Vec<String> = gen::warmup(args.workload)
        .iter()
        .enumerate()
        .map(|(k, j)| j.request_line(&format!("warm{k}")))
        .collect();
    let traced: Vec<(usize, &str)> = requests
        .iter()
        .take(plan.traced_jobs)
        .map(String::as_str)
        .enumerate()
        .collect();
    let replay = trace::replay(&warmup, &traced, plan.sink_every)?;
    for (index, line) in &replay.lines {
        if served_lines.get(index).is_some_and(|served| served != line) {
            fail(
                *index,
                "traced replay differs from the served line".to_owned(),
            );
        }
    }
    let (rows, total) = trace::stage_table(&replay);
    println!(
        "stage table ({} traced jobs, median per-job total {total:.1} us):",
        traced.len()
    );
    println!(
        "  {:<28} {:>14} {:>8} {:>14}",
        "stage", "self us/job", "share", "median us"
    );
    for row in &rows {
        println!(
            "  {:<28} {:>14.1} {:>7.1}% {:>14.1}",
            row.name,
            row.mean_self_us,
            row.share * 100.0,
            row.median_us
        );
    }
    let dir = std::path::Path::new("svcbench/out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, replay.tracer.to_tsv()))
    {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("svcbench: could not write spans: {e}"),
    }
    Ok(replay)
}

fn layer_metrics(
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
    replay: &trace::Replay,
    window: &load::LoadRun,
    cache_hits: u64,
    cache_misses: u64,
    ok_jobs: &[&load::Served],
) {
    let (rows, traced_total) = trace::stage_table(replay);
    let stage = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.median_us)
    };
    for (metric_name, stage_name) in [
        ("serve.parse_request_us", "serve.parse_request"),
        ("lang.parse_us", "lang.parse"),
        ("lang.elaborate_us", "lang.elaborate"),
        ("query.analyze_us", "query.analyze"),
        ("lang.compile_us", "lang.compile"),
        ("reliability.engine_srgs_us", "reliability.engine_srgs"),
        ("sim.try_new_observed_us", "sim.try_new_observed"),
        ("sim.scenario_parse_us", "sim.scenario_parse"),
        ("sim.aggregate_us", "sim.aggregate"),
        ("obs.merge_us", "obs.merge"),
        ("obs.to_json_line_us", "obs.to_json_line"),
    ] {
        metric(metrics, metric_name, stage(stage_name), "us");
    }
    let side = &replay.side;
    for (name, times) in &side.per_query {
        metric(metrics, name, median(times).unwrap_or(0.0), "us");
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    metric(metrics, "lang.source_kb", mean(&side.source_kb), "KiB");
    let q = &side.query_stats;
    let col = |f: fn(&(u64, u64, u64, u64)) -> u64| {
        mean(&q.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    metric(metrics, "query.hits", col(|s| s.1), "count");
    metric(metrics, "query.recomputes", col(|s| s.2), "count");
    metric(metrics, "query.refine_reuses", col(|s| s.3), "count");
    let queries: u64 = q.iter().map(|s| s.0).sum();
    let hits: u64 = q.iter().map(|s| s.1).sum();
    metric(
        metrics,
        "query.hit_ratio",
        if queries == 0 {
            0.0
        } else {
            hits as f64 / queries as f64
        },
        "ratio",
    );
    for (kind, bitsliced) in [("scalar", false), ("bitsliced", true)] {
        let units: Vec<_> = side.units.iter().filter(|u| u.0 == bitsliced).collect();
        let times: Vec<f64> = units.iter().map(|u| u.3).collect();
        let rep_rounds: f64 = units.iter().map(|u| (u.1 as u64 * u.2) as f64).sum();
        let busy_s: f64 = times.iter().sum::<f64>() / 1e6;
        metric(
            metrics,
            &format!("sim.run_unit_us.{kind}"),
            median(&times).unwrap_or(0.0),
            "us",
        );
        metric(
            metrics,
            &format!("sim.rep_rounds_per_busy_s.{kind}"),
            if busy_s > 0.0 {
                rep_rounds / busy_s
            } else {
                0.0
            },
            "1/s",
        );
    }
    metric(
        metrics,
        "sim.lane_width_mean",
        mean(
            &side
                .real_widths
                .iter()
                .map(|&w| w as f64)
                .collect::<Vec<_>>(),
        ),
        "lanes",
    );
    metric(
        metrics,
        "sim.sink_overhead_ratio",
        median(&side.sink_ratios).unwrap_or(0.0),
        "ratio",
    );
    metric(
        metrics,
        "obs.metrics_line_kb",
        median(&side.line_kb).unwrap_or(0.0),
        "KiB",
    );
    let kb = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    metric(
        metrics,
        "serve.request_kb",
        kb(window
            .served
            .iter()
            .map(|s| s.request_len as f64 / 1024.0)
            .collect()),
        "KiB",
    );
    metric(
        metrics,
        "serve.response_kb",
        kb(ok_jobs
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .map(|&len| len as f64 / 1024.0)
            .collect()),
        "KiB",
    );
    let lookups = cache_hits + cache_misses;
    metric(
        metrics,
        "serve.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    let latencies: Vec<f64> = ok_jobs
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e6)
        .collect();
    let served_median_us = median(&latencies).unwrap_or(0.0);
    // The tail percentile varies too much between runs of the campaign
    // workloads to bound, so it is reported here with its sample count.
    metric(
        metrics,
        "serve.job_latency_p90_ms",
        percentile(&latencies, 0.9).unwrap_or(0.0) / 1e3,
        "ms",
    );
    metric(
        metrics,
        "serve.latency_samples",
        latencies.len() as f64,
        "count",
    );
    metric(metrics, "serve.traced_job_total_us", traced_total, "us");
    metric(
        metrics,
        "serve.unattributed_us",
        served_median_us - traced_total,
        "us",
    );
    println!("traced median per-job total: {traced_total:.1} us; served median: {served_median_us:.1} us");
}
