//! Output checks: response shape, the `_seconds`-stripped digest, and
//! the library reference path that served lines must equal.

use logrel_core::{CommunicatorId, HostId, TimeDependentImplementation, Value};
use logrel_lang::ElaboratedSystem;
use logrel_obs::export::to_json_line;
use logrel_obs::{names, MetricsSink, Registry};
use logrel_query::analyze_source;
use logrel_serve::proto::{escape, parse_json, Json};
use logrel_sim::montecarlo::{BatchConfig, ReplicationContext};
use logrel_sim::{
    run_campaign_observed, BehaviorMap, CampaignConfig, ConstantEnvironment, MonitorConfig,
    ProbabilisticFaults, Scenario, ScenarioSymbols, Simulation,
};

use crate::gen::JobSpec;

/// Flight-recorder ring of a served job's registries (the service
/// default, and what `htlc inject --metrics` uses).
pub const FLIGHT_RING: usize = 256;

/// FNV-1a over `bytes`, continuing from `hash`.
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            let mut first = true;
            for (key, value) in fields {
                if key.ends_with("_seconds") {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&escape(key));
                out.push_str("\":");
                write_json(value, out);
            }
            out.push('}');
        }
    }
}

/// Re-renders a JSON line with every object key ending in `_seconds`
/// removed (at any depth) — the wall-clock span family, the only part
/// of a metrics line that may differ between equal runs.
pub fn strip_seconds(line: &str) -> Result<String, String> {
    let doc = parse_json(line)?;
    let mut out = String::with_capacity(line.len());
    write_json(&doc, &mut out);
    Ok(out)
}

/// Checks one job's response lines: a well-formed `logrel-metrics-v1`
/// line then a `done` status for `id`. Returns the metrics line.
pub fn check_response<'a>(id: &str, lines: &'a [String]) -> Result<&'a str, String> {
    let [metrics, status] = lines else {
        return Err(format!(
            "expected 2 response lines, got {}: {lines:?}",
            lines.len()
        ));
    };
    let status_doc = parse_json(status).map_err(|e| format!("status line: {e}"))?;
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_str).map(str::to_owned);
    if field(&status_doc, "schema").as_deref() != Some("logrel-job-status-v1")
        || field(&status_doc, "id").as_deref() != Some(id)
        || field(&status_doc, "status").as_deref() != Some("done")
    {
        return Err(format!("job {id} not done: {status}"));
    }
    let doc = parse_json(metrics).map_err(|e| format!("metrics line: {e}"))?;
    let well_formed = field(&doc, "schema").as_deref() == Some("logrel-metrics-v1")
        && ["counters", "gauges", "histograms"]
            .iter()
            .all(|k| matches!(doc.get(k), Some(Json::Obj(_))));
    if !well_formed {
        return Err(format!("job {id}: malformed metrics line"));
    }
    Ok(metrics)
}

/// The S-code of a rejection status line, if `line` is one.
#[must_use]
pub fn rejection_code(line: &str) -> Option<String> {
    let doc = parse_json(line).ok()?;
    (doc.get("status").and_then(Json::as_str) == Some("rejected")).then(|| {
        doc.get("code")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    })
}

/// Scenario name resolution against an elaborated system.
pub struct Symbols<'a>(pub &'a ElaboratedSystem);

impl ScenarioSymbols for Symbols<'_> {
    fn host(&self, name: &str) -> Option<HostId> {
        self.0.arch.find_host(name)
    }
    fn communicator(&self, name: &str) -> Option<CommunicatorId> {
        self.0.spec.find_communicator(name)
    }
}

/// The job run through the library campaign pipeline the way
/// `htlc inject --metrics` runs it (compile/certify spans included),
/// rendered as a metrics line with the `_seconds` family stripped.
pub fn library_line(job: &JobSpec) -> Result<String, String> {
    let sys = logrel_lang::compile(&job.spec).map_err(|e| e.to_string())?;
    let scenario =
        Scenario::parse_with(&job.scenario, &Symbols(&sys)).map_err(|e| e.to_string())?;
    let analytic = logrel_reliability::compute_srgs(&sys.spec, &sys.arch, &sys.imp)
        .map_err(|e| e.to_string())?;
    let analytic: Vec<Option<f64>> = sys
        .spec
        .communicator_ids()
        .map(|c| Some(analytic.communicator(c).get()))
        .collect();
    let td = TimeDependentImplementation::from(sys.imp.clone());
    let mut registry = Registry::with_recorder(FLIGHT_RING);
    let sim = Simulation::try_new_observed(&sys.spec, &sys.arch, &td, &mut registry)
        .map_err(|e| e.to_string())?;
    let config = CampaignConfig {
        batch: BatchConfig {
            replications: job.replications,
            rounds: job.rounds,
            base_seed: job.seed,
            threads: 1,
        },
        monitor: MonitorConfig::default(),
        lanes: job.lanes,
    };
    registry.set_gauge(names::BITSLICE_LANES, job.lanes.width() as f64);
    registry.set_gauge(names::CAMPAIGN_SEED, job.seed as f64);
    let setup = |_rep| ReplicationContext {
        behaviors: BehaviorMap::new(),
        environment: Box::new(ConstantEnvironment::new(Value::Float(1.0))),
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
        FLIGHT_RING,
    )
    .map_err(|e| e.to_string())?;
    strip_seconds(&to_json_line(&registry))
}

/// Whether warm analysis of `source` against the database left by
/// analysing `prior_source` equals cold analysis of `source`.
#[must_use]
pub fn warm_equals_cold(prior_source: &str, source: &str) -> bool {
    let sink = &mut logrel_obs::NoopSink;
    let prior = analyze_source(prior_source, "<inline>", None, sink).db;
    let warm = analyze_source(source, "<inline>", prior.as_ref(), sink);
    let cold = analyze_source(source, "<inline>", None, sink);
    (warm.stdout, warm.stderr, warm.errors) == (cold.stdout, cold.stderr, cold.errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_seconds_keys_at_every_depth_and_keeps_the_rest() {
        let line = r#"{"schema":"logrel-metrics-v1","counters":{"a_total":3},"gauges":{"logrel_compile_seconds":0.0012,"lanes":64,"x_seconds_total":1},"histograms":{"h_seconds":{"sum":1}},"dumps":[{"at_seconds":2,"k":"v\"q"}]}"#;
        assert_eq!(
            strip_seconds(line).unwrap(),
            r#"{"schema":"logrel-metrics-v1","counters":{"a_total":3},"gauges":{"lanes":64,"x_seconds_total":1},"histograms":{},"dumps":[{"k":"v\"q"}]}"#
        );
    }

    #[test]
    fn strip_is_the_identity_on_lines_without_seconds() {
        let line = r#"{"schema":"logrel-metrics-v1","counters":{},"gauges":{"g":1.5e-7,"n":-2},"histograms":{"h":{"buckets":[[0.5,1],["+Inf",2]],"sum":3,"count":2}}}"#;
        assert_eq!(strip_seconds(line).unwrap(), line);
        assert!(strip_seconds("{not json").is_err());
    }

    #[test]
    fn lines_differing_only_in_seconds_digest_equal() {
        let a = r#"{"gauges":{"logrel_run_seconds":0.25,"g":1}}"#;
        let b = r#"{"gauges":{"logrel_run_seconds":0.75,"g":1}}"#;
        let c = r#"{"gauges":{"logrel_run_seconds":0.25,"g":2}}"#;
        let digest = |l: &str| fnv1a(FNV_START, strip_seconds(l).unwrap().as_bytes());
        assert_eq!(digest(a), digest(b));
        assert_ne!(digest(a), digest(c));
    }

    #[test]
    fn responses_are_checked_for_shape_and_status() {
        let metrics = r#"{"schema":"logrel-metrics-v1","counters":{},"gauges":{},"histograms":{}}"#;
        let done = logrel_serve::proto::status_done("j1", true);
        let ok = vec![metrics.to_owned(), done.clone()];
        assert_eq!(check_response("j1", &ok).unwrap(), metrics);
        assert!(check_response("j2", &ok).is_err());
        assert!(check_response("j1", &[done]).is_err());
        let rejected = logrel_serve::proto::status_rejected("j1", "S003", "bad");
        assert_eq!(rejection_code(&rejected).as_deref(), Some("S003"));
        assert!(check_response("j1", &[r#"{"schema":"x"}"#.to_owned(), rejected]).is_err());
    }
}
