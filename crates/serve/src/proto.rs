//! The line-delimited job protocol: `logrel-job-v1` requests in,
//! `logrel-metrics-v1` results and `logrel-job-status-v1` status lines
//! out.
//!
//! Every message is one line of JSON. The parser is a small
//! recursive-descent implementation over a byte cursor — the repo
//! carries no serde, and the protocol surface is deliberately tiny, so
//! hand-rolling keeps the service dependency-free and the error
//! positions exact.
//!
//! Structured rejections carry stable `S`-codes:
//!
//! | code | meaning |
//! |------|---------|
//! | S001 | malformed request (bad JSON, wrong schema, bad field) |
//! | S002 | queue full — resubmit later |
//! | S003 | spec failed to compile |
//! | S004 | bad scenario or campaign parameters |
//! | S005 | service is shutting down |

use logrel_sim::{LaneMode, DEFAULT_REPLICATIONS, DEFAULT_ROUNDS, DEFAULT_SEED};

/// Stable rejection code: malformed request line.
pub const S_MALFORMED: &str = "S001";
/// Stable rejection code: admission queue full.
pub const S_QUEUE_FULL: &str = "S002";
/// Stable rejection code: spec failed analysis/compilation.
pub const S_COMPILE: &str = "S003";
/// Stable rejection code: bad scenario or campaign parameters.
pub const S_CAMPAIGN: &str = "S004";
/// Stable rejection code: service draining, no new jobs.
pub const S_SHUTDOWN: &str = "S005";

/// A structured job rejection: a stable `S`-code plus a human-readable
/// message, rendered as a `logrel-job-status-v1` line by
/// [`status_rejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// One of the `S_*` codes above.
    pub code: &'static str,
    /// Human-readable detail (embedded JSON-escaped in the status line).
    pub message: String,
}

impl JobError {
    /// A rejection with the given code and message.
    #[must_use]
    pub fn new(code: &'static str, message: String) -> Self {
        JobError { code, message }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for JobError {}

/// A parsed JSON value. Numbers keep their source literal so integer
/// fields (seeds are full-range `u64`) round-trip without a lossy `f64`
/// detour.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The raw number literal, e.g. `"18446744073709551615"`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if the literal parses as one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound one line of `[`s would
/// overflow the stack; no protocol message nests deeper than 2.
const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON document; trailing garbage, and arrays or objects
/// nested more than 64 deep, are errors.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => {
                Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", self.pos))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            // Surrogate pairs are not worth supporting for
                            // this protocol; map them to the replacement
                            // character rather than rejecting the line.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                Some(_) => {
                    // Copy a maximal run of plain bytes (UTF-8 passes
                    // through untouched).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_owned())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Validate via f64 parse (u64 literals above 2^53 still keep
        // their exact raw form for `as_u64`).
        raw.parse::<f64>()
            .map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Json::Num(raw.to_owned()))
    }
}

/// Where a job's spec or scenario text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Text inline in the request.
    Inline(String),
    /// A path the server reads (relative paths resolve against the
    /// server's working directory).
    Path(String),
}

/// One parsed `logrel-job-v1` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id, echoed on every response line.
    pub id: String,
    /// The HTL spec.
    pub spec: Source,
    /// The fault scenario script.
    pub scenario: Source,
    /// Rounds per replication (default [`DEFAULT_ROUNDS`]).
    pub rounds: u64,
    /// Replication count (default [`DEFAULT_REPLICATIONS`]).
    pub replications: u64,
    /// Campaign base seed (default [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Lane mode: `"auto"` (default), `"off"`, or a width 1..=64.
    pub lanes: LaneMode,
}

/// A request line, after schema dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a campaign job.
    Job(Box<JobRequest>),
    /// Emit the service's own metrics registry.
    Stats { id: String },
}

/// Parses one request line. On error, returns `(job id if recoverable,
/// message)` — the id lets the rejection line still correlate.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let doc = parse_json(line).map_err(|e| ("?".to_owned(), e))?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    let fail = |msg: &str| Err((id.clone(), msg.to_owned()));
    match doc.get("schema").and_then(Json::as_str) {
        Some("logrel-job-v1") => {}
        Some(other) => return fail(&format!("unknown schema `{other}`")),
        None => return fail("missing `schema`"),
    }
    if id == "?" {
        return fail("missing `id`");
    }
    if let Some(op) = doc.get("op").and_then(Json::as_str) {
        return match op {
            "run" => parse_job(&doc, id.clone()).map_err(|m| (id, m)),
            "stats" => Ok(Request::Stats { id }),
            other => fail(&format!("unknown op `{other}`")),
        };
    }
    parse_job(&doc, id.clone()).map_err(|m| (id, m))
}

fn source_field(doc: &Json, inline: &str, path: &str) -> Result<Option<Source>, String> {
    match (doc.get(inline), doc.get(path)) {
        (Some(_), Some(_)) => Err(format!("both `{inline}` and `{path}` given")),
        (Some(v), None) => match v.as_str() {
            Some(s) => Ok(Some(Source::Inline(s.to_owned()))),
            None => Err(format!("`{inline}` must be a string")),
        },
        (None, Some(v)) => match v.as_str() {
            Some(s) => Ok(Some(Source::Path(s.to_owned()))),
            None => Err(format!("`{path}` must be a string")),
        },
        (None, None) => Ok(None),
    }
}

fn u64_field(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn parse_job(doc: &Json, id: String) -> Result<Request, String> {
    let spec = source_field(doc, "spec", "spec_path")?.ok_or("missing `spec` or `spec_path`")?;
    let scenario = source_field(doc, "scenario", "scenario_path")?
        .ok_or("missing `scenario` or `scenario_path`")?;
    let lanes = match doc.get("lanes") {
        None => LaneMode::Auto,
        Some(Json::Str(s)) if s == "auto" => LaneMode::Auto,
        Some(Json::Str(s)) if s == "off" => LaneMode::Off,
        Some(v) => match v.as_u64() {
            Some(n @ 1..=64) => LaneMode::Width(n as u8),
            _ => return Err("`lanes` must be \"auto\", \"off\" or 1..=64".to_owned()),
        },
    };
    Ok(Request::Job(Box::new(JobRequest {
        id,
        spec,
        scenario,
        rounds: u64_field(doc, "rounds", DEFAULT_ROUNDS)?,
        replications: u64_field(doc, "replications", DEFAULT_REPLICATIONS)?,
        seed: u64_field(doc, "seed", DEFAULT_SEED)?,
        lanes,
    })))
}

/// Escapes `s` for embedding inside a JSON string literal.
pub use logrel_obs::export::json_escape as escape;

/// Renders the status line for a completed job.
#[must_use]
pub fn status_done(id: &str, cache_hit: bool) -> String {
    format!(
        "{{\"schema\":\"logrel-job-status-v1\",\"id\":\"{}\",\"status\":\"done\",\"cache\":\"{}\"}}",
        escape(id),
        if cache_hit { "hit" } else { "miss" },
    )
}

/// Renders the status line for a rejected job.
#[must_use]
pub fn status_rejected(id: &str, code: &str, message: &str) -> String {
    format!(
        "{{\"schema\":\"logrel-job-status-v1\",\"id\":\"{}\",\"status\":\"rejected\",\"code\":\"{}\",\"message\":\"{}\"}}",
        escape(id),
        escape(code),
        escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job_with_defaults() {
        let line = r#"{"schema":"logrel-job-v1","id":"j1","spec":"program p {}","scenario_path":"s.fault"}"#;
        match parse_request(line).unwrap() {
            Request::Job(job) => {
                assert_eq!(job.id, "j1");
                assert_eq!(job.spec, Source::Inline("program p {}".to_owned()));
                assert_eq!(job.scenario, Source::Path("s.fault".to_owned()));
                assert_eq!(job.rounds, 4_000);
                assert_eq!(job.replications, 8);
                assert_eq!(job.seed, 0xC0FFEE);
                assert_eq!(job.lanes, LaneMode::Auto);
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn full_range_u64_seed_round_trips_exactly() {
        let line = format!(
            r#"{{"schema":"logrel-job-v1","id":"j","spec":"x","scenario":"y","seed":{}}}"#,
            u64::MAX
        );
        match parse_request(&line).unwrap() {
            Request::Job(job) => assert_eq!(job.seed, u64::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejections_keep_the_job_id_when_present() {
        let (id, msg) =
            parse_request(r#"{"schema":"logrel-job-v1","id":"j9"}"#).unwrap_err();
        assert_eq!(id, "j9");
        assert!(msg.contains("spec"), "{msg}");
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, "?");
    }

    #[test]
    fn schema_and_op_are_validated() {
        assert!(parse_request(r#"{"schema":"nope-v9","id":"a","spec":"x","scenario":"y"}"#)
            .is_err());
        assert!(matches!(
            parse_request(r#"{"schema":"logrel-job-v1","id":"a","op":"stats"}"#),
            Ok(Request::Stats { .. })
        ));
        assert!(parse_request(r#"{"schema":"logrel-job-v1","id":"a","op":"dance"}"#).is_err());
    }

    #[test]
    fn json_parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse_json(r#"{"a":[1,2.5,{"b":"x\ny"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("2.5".into()),
                Json::Obj(vec![("b".into(), Json::Str("x\ny".into()))]),
            ])
        );
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a":1} extra"#).is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
    }

    #[test]
    fn status_lines_are_single_line_json() {
        let done = status_done("j\"1", true);
        assert!(parse_json(&done).is_ok(), "{done}");
        assert!(!done.contains('\n'));
        let rej = status_rejected("j", S_QUEUE_FULL, "queue full\nretry");
        assert!(parse_json(&rej).is_ok(), "{rej}");
        assert!(!rej.contains('\n'));
    }
}
