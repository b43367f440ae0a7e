//! Exporters: Prometheus text exposition and a self-describing JSON
//! document (`logrel-metrics-v1`).
//!
//! Both renderers are hand-rolled (the workspace is offline — no serde)
//! and fully deterministic: the registry's `BTreeMap` stores fix the
//! iteration order, and numbers render through a single formatting
//! routine.

use crate::catalog;
use crate::metrics::{Histogram, Registry};
use crate::recorder::{Dump, ObsEvent};

/// Formats a float the way both exporters expect: integral values
/// without a trailing `.0` mantissa in Prometheus would be fine, but we
/// keep Rust's shortest-roundtrip `{}` formatting for both so the two
/// documents agree with each other and with test expectations.
fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf".into() } else { "-Inf".into() }
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

fn help_and_type(out: &mut String, name: &str, kind: &str) {
    if let Some(def) = catalog::lookup(name) {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(def.help);
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn histogram_text(out: &mut String, name: &str, h: &Histogram) {
    let cumulative = h.cumulative();
    for (bound, cum) in h.bounds().iter().zip(&cumulative) {
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&fmt_f64(*bound));
        out.push_str("\"} ");
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&fmt_f64(h.sum()));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Renders the registry as Prometheus text exposition (version 0.0.4).
///
/// Catalogued metrics get `# HELP` lines; all get `# TYPE`. Histograms
/// follow the cumulative-`le` bucket convention with an explicit `+Inf`
/// bucket, `_sum` and `_count`.
#[must_use]
pub fn to_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        help_and_type(&mut out, name, "counter");
        out.push_str(name);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    for (name, v) in reg.gauges() {
        help_and_type(&mut out, name, "gauge");
        out.push_str(name);
        out.push(' ');
        out.push_str(&fmt_f64(v));
        out.push('\n');
    }
    for (name, h) in reg.histograms() {
        help_and_type(&mut out, name, "histogram");
        histogram_text(&mut out, name, h);
    }
    out
}

/// Escapes a string for embedding in a JSON string literal.
///
/// Hand-rolled (the workspace deliberately carries no serde) but complete:
/// quotes, backslashes and all control characters are escaped, so any
/// string round-trips through strict parsers. Every JSON document the
/// workspace writes (`logrel-metrics-v1`, `logrel-diagnostics-v1`,
/// `logrel-certificate-v1` and the job-service lines) escapes through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON number rendering: JSON has no `Inf`/`NaN`, so those become
/// strings.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        format!("\"{}\"", fmt_f64(v))
    }
}

fn push_kv_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(&json_escape(key));
    out.push_str("\": \"");
    out.push_str(&json_escape(value));
    out.push('"');
}

fn event_json(event: &ObsEvent) -> String {
    let mut s = String::from("{");
    push_kv_str(&mut s, "kind", event.kind());
    s.push_str(&format!(", \"at\": {}", event.at()));
    match event {
        ObsEvent::Vote {
            task,
            outcome,
            delivered,
            replicas,
            ..
        } => {
            s.push_str(&format!(
                ", \"task\": {task}, \"outcome\": \"{}\", \"delivered\": {delivered}, \"replicas\": {replicas}",
                outcome.label()
            ));
        }
        ObsEvent::ReplicaDrop {
            task, host, reason, ..
        } => {
            s.push_str(&format!(
                ", \"task\": {task}, \"host\": {host}, \"reason\": \"{}\"",
                reason.label()
            ));
        }
        ObsEvent::HostDown { host, .. } | ObsEvent::HostUp { host, .. } => {
            s.push_str(&format!(", \"host\": {host}"));
        }
        ObsEvent::AlarmRaised {
            comm,
            mean,
            epsilon,
            lrc,
            ..
        } => {
            s.push_str(&format!(
                ", \"comm\": {comm}, \"mean\": {}, \"epsilon\": {}, \"lrc\": {}",
                json_f64(*mean),
                json_f64(*epsilon),
                json_f64(*lrc)
            ));
        }
        ObsEvent::AlarmCleared { comm, mean, .. } => {
            s.push_str(&format!(", \"comm\": {comm}, \"mean\": {}", json_f64(*mean)));
        }
        ObsEvent::DegraderEngaged { rule, .. } => {
            s.push_str(&format!(", \"rule\": {rule}"));
        }
        ObsEvent::ModeSwitch { event, .. } => {
            s.push_str(", ");
            push_kv_str(&mut s, "event", event);
        }
    }
    s.push('}');
    s
}

fn dump_json(dump: &Dump) -> String {
    let mut s = String::from("{");
    push_kv_str(&mut s, "trigger", dump.trigger.label());
    if let crate::recorder::DumpTrigger::AlarmRaised { comm } = &dump.trigger {
        s.push_str(&format!(", \"comm\": {comm}"));
    }
    s.push_str(&format!(", \"at\": {}", dump.at));
    s.push_str(", \"events\": [");
    for (i, e) in dump.events.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&event_json(e));
    }
    s.push_str("]}");
    s
}

/// Renders the registry as a self-describing JSON document.
///
/// Layout:
///
/// ```json
/// {
///   "schema": "logrel-metrics-v1",
///   "counters": { "name": 1, ... },
///   "gauges": { "name": 0.5, ... },
///   "histograms": { "name": { "buckets": [[le, cum], ...],
///                              "sum": 1.0, "count": 3 }, ... },
///   "dumps": [ { "trigger": "...", "at": 0, "events": [...] }, ... ]
/// }
/// ```
///
/// `dumps` is present only when the registry carries a flight recorder.
#[must_use]
pub fn to_json(reg: &Registry) -> String {
    let mut out = String::from("{\n  \"schema\": \"logrel-metrics-v1\",\n  \"counters\": {");
    for (i, (name, v)) in reg.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {v}"));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, v)) in reg.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {}", json_f64(v)));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in reg.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {{\"buckets\": ["));
        let cumulative = h.cumulative();
        for (j, (bound, cum)) in h.bounds().iter().zip(&cumulative).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{}, {cum}]", json_f64(*bound)));
        }
        if !h.bounds().is_empty() {
            out.push_str(", ");
        }
        out.push_str(&format!("[\"+Inf\", {}]", h.count()));
        out.push_str(&format!(
            "], \"sum\": {}, \"count\": {}}}",
            json_f64(h.sum()),
            h.count()
        ));
    }
    out.push_str("\n  }");
    if let Some(rec) = reg.recorder() {
        out.push_str(",\n  \"dumps\": [");
        for (i, dump) in rec.dumps().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&dump_json(dump));
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Renders the registry as a single compact `logrel-metrics-v1` JSON
/// line (no interior newlines, no trailing newline) — the wire format of
/// the line-delimited job service, where one response is one line.
///
/// Same schema and key order as [`to_json`], minus the pretty-printing;
/// a whitespace-insensitive JSON parse of either document yields the
/// same value.
#[must_use]
pub fn to_json_line(reg: &Registry) -> String {
    let mut out = String::from("{\"schema\":\"logrel-metrics-v1\",\"counters\":{");
    for (i, (name, v)) in reg.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in reg.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{}", json_f64(v)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in reg.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{{\"buckets\":["));
        let cumulative = h.cumulative();
        for (j, (bound, cum)) in h.bounds().iter().zip(&cumulative).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{cum}]", json_f64(*bound)));
        }
        if !h.bounds().is_empty() {
            out.push(',');
        }
        out.push_str(&format!("[\"+Inf\",{}]", h.count()));
        out.push_str(&format!(
            "],\"sum\":{},\"count\":{}}}",
            json_f64(h.sum()),
            h.count()
        ));
    }
    out.push('}');
    if let Some(rec) = reg.recorder() {
        out.push_str(",\"dumps\":[");
        for (i, dump) in rec.dumps().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&dump_json(dump));
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::names;
    use crate::metrics::MetricsSink;
    use crate::recorder::VoteOutcome;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    fn sample() -> Registry {
        let mut r = Registry::with_recorder(8);
        r.add(names::ROUNDS, 3);
        r.add(names::VOTE_UNANIMOUS, 18);
        r.set_gauge(names::HOSTS_UP, 3.0);
        r.observe(names::REPLICAS_PER_VOTE, 1.0);
        r.event(&ObsEvent::Vote {
            at: 500,
            task: 0,
            outcome: VoteOutcome::Unanimous,
            delivered: 1,
            replicas: 1,
        });
        r.recorder_mut().unwrap().dump_now(500);
        r
    }

    #[test]
    fn prometheus_text_has_help_type_and_samples() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# HELP logrel_rounds_total Simulated rounds completed\n"));
        assert!(text.contains("# TYPE logrel_rounds_total counter\n"));
        assert!(text.contains("logrel_rounds_total 3\n"));
        assert!(text.contains("logrel_hosts_up 3\n"));
        assert!(text.contains("logrel_replicas_per_vote_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("logrel_replicas_per_vote_sum 1\n"));
        assert!(text.contains("logrel_replicas_per_vote_count 1\n"));
        // Cumulative le buckets are monotone: le="1" already holds the obs.
        assert!(text.contains("logrel_replicas_per_vote_bucket{le=\"1\"} 1\n"));
    }

    #[test]
    fn json_is_schema_tagged_and_carries_dumps() {
        let json = to_json(&sample());
        assert!(json.contains("\"schema\": \"logrel-metrics-v1\""));
        assert!(json.contains("\"logrel_rounds_total\": 3"));
        assert!(json.contains("\"dumps\": ["));
        assert!(json.contains("\"trigger\": \"manual\""));
        assert!(json.contains("\"outcome\": \"unanimous\""));
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(to_prometheus(&sample()), to_prometheus(&sample()));
        assert_eq!(to_json(&sample()), to_json(&sample()));
        assert_eq!(to_json_line(&sample()), to_json_line(&sample()));
    }

    #[test]
    fn serve_cache_metrics_export_with_help_and_type_deterministically() {
        let registry = || {
            let mut r = Registry::new();
            r.add(names::SERVE_CACHE_EVICTIONS, 2);
            r.set_gauge(names::SERVE_CACHE_ENTRIES, 64.0);
            r
        };
        let text = to_prometheus(&registry());
        assert!(text.contains(
            "# HELP logrel_serve_cache_evictions_total Compiled specs evicted from the bounded compile cache\n"
        ));
        assert!(text.contains("# TYPE logrel_serve_cache_evictions_total counter\n"));
        assert!(text.contains("logrel_serve_cache_evictions_total 2\n"));
        assert!(text.contains(
            "# HELP logrel_serve_cache_entries Specs currently held in the compile cache\n"
        ));
        assert!(text.contains("# TYPE logrel_serve_cache_entries gauge\n"));
        assert!(text.contains("logrel_serve_cache_entries 64\n"));
        assert_eq!(text, to_prometheus(&registry()));
        assert_eq!(to_json_line(&registry()), to_json_line(&registry()));
    }

    #[test]
    fn json_line_is_single_line_and_whitespace_equivalent_to_pretty() {
        let line = to_json_line(&sample());
        assert!(!line.contains('\n'), "line format must be newline-free");
        assert!(line.starts_with("{\"schema\":\"logrel-metrics-v1\""));
        // Stripping all whitespace outside strings from the pretty form
        // must yield the compact form (same keys, order and values). The
        // sample has no whitespace inside string values, so a blanket
        // strip is faithful — except the spaces dump_json itself emits,
        // which appear identically in both documents.
        let pretty = to_json(&sample());
        let strip = |s: &str| {
            s.chars()
                .filter(|c| !c.is_ascii_whitespace())
                .collect::<String>()
        };
        assert_eq!(strip(&pretty), strip(&line));
    }

    #[test]
    fn json_handles_nonfinite_gauges_as_strings() {
        let mut r = Registry::new();
        r.set_gauge(names::HOSTS_UP, f64::INFINITY);
        let json = to_json(&r);
        assert!(json.contains("\"logrel_hosts_up\": \"+Inf\""));
    }
}
