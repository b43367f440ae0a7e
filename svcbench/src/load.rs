//! The closed-loop load generator: an in-process TCP server and client
//! threads that each send their next request only after the previous
//! one was answered.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use logrel_serve::{Engine, ServeConfig, Server};

use crate::check;
use crate::gen::Generator;

/// Worker threads of the service under test.
pub const WORKERS: usize = 2;
/// Client threads, one connection each.
pub const CLIENTS: usize = 2;

/// Starts the service on an OS-chosen loopback port.
pub fn start_server() -> std::io::Result<Server> {
    let engine = Engine::new(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    Server::start(engine, "127.0.0.1:0")
}

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `server`.
    pub fn connect(server: &Server) -> std::io::Result<Client> {
        let writer = TcpStream::connect(server.local_addr())?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line and reads its responses up to and
    /// including the status line.
    pub fn call(&mut self, request: &str) -> Result<Vec<String>, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::with_capacity(2);
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed".to_owned()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            line.truncate(line.trim_end().len());
            let is_status = line.starts_with("{\"schema\":\"logrel-job-status-v1\"");
            lines.push(line);
            if is_status {
                return Ok(lines);
            }
        }
    }
}

/// One attempted job of the measured window.
#[derive(Debug)]
pub struct Served {
    /// Index in the job stream.
    pub index: usize,
    /// Request sent to status line received.
    pub latency: Duration,
    /// Request line length in bytes.
    pub request_len: usize,
    /// Response length in bytes, or why the job failed (transport
    /// error, rejection or malformed response).
    pub outcome: Result<usize, String>,
    /// The metrics line, kept for the pre-rendered prefix only.
    pub metrics_line: Option<String>,
}

/// Checks a job's response lines, the way every response is checked.
fn verdict(
    index: usize,
    response: Result<Vec<String>, String>,
    keep: bool,
) -> (Result<usize, String>, Option<String>) {
    let lines = match response {
        Ok(lines) => lines,
        Err(e) => return (Err(format!("transport: {e}")), None),
    };
    match check::check_response(&format!("j{index}"), &lines) {
        Ok(metrics) => {
            let len = lines.iter().map(|l| l.len() + 1).sum();
            (Ok(len), keep.then(|| metrics.to_owned()))
        }
        Err(e) => {
            let code = lines.last().and_then(|l| check::rejection_code(l));
            (
                Err(code.map_or_else(|| format!("bad response: {e}"), |c| format!("rejected {c}"))),
                None,
            )
        }
    }
}

/// The measured window.
#[derive(Debug)]
pub struct LoadRun {
    /// Every attempted job, by stream index.
    pub served: Vec<Served>,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
}

/// Drives the stream with `CLIENTS` closed-loop clients for `seconds`,
/// and in any case until the pre-rendered `prefix` was sent. Later
/// requests are rendered on demand, before their latency clock starts;
/// every response is checked after its clock stops, and only the
/// prefix's metrics lines are kept.
pub fn run(server: &Server, stream: &Generator, prefix: &[String], seconds: f64) -> LoadRun {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut client = match Client::connect(server) {
                        Ok(c) => c,
                        Err(e) => {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            let outcome = Err(format!("transport: connect: {e}"));
                            mine.push(Served {
                                index,
                                latency: Duration::ZERO,
                                request_len: 0,
                                outcome,
                                metrics_line: None,
                            });
                            return mine;
                        }
                    };
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= prefix.len() && Instant::now() >= deadline {
                            return mine;
                        }
                        let rendered;
                        let request = match prefix.get(index) {
                            Some(r) => r,
                            None => {
                                rendered = stream.request(index);
                                &rendered
                            }
                        };
                        let sent = Instant::now();
                        let response = client.call(request);
                        let latency = sent.elapsed();
                        let broken = response.is_err();
                        let (outcome, metrics_line) =
                            verdict(index, response, index < prefix.len());
                        mine.push(Served {
                            index,
                            latency,
                            request_len: request.len(),
                            outcome,
                            metrics_line,
                        });
                        if broken {
                            return mine;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    served.sort_by_key(|s| s.index);
    LoadRun { served, elapsed }
}
