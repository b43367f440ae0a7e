//! Transport frontends for the engine: line-at-a-time request
//! processing, a sequential `--stdin` mode for CI, and a threaded TCP
//! listener.
//!
//! Both frontends share [`respond`], so a job behaves identically, byte
//! for byte, whether it arrives over a socket or a pipe. A malformed or
//! failing line produces a structured rejection and never terminates
//! the service — the next line is processed normally.
//!
//! # Framing
//!
//! A request's response lines, each with its newline, leave in **one**
//! write. Writing a line and its newline separately lets Nagle's
//! algorithm hold the newline back until the client's delayed ACK
//! (~40 ms on Linux) arrives, forty times the latency of a small job.
//! Accepted sockets also disable Nagle outright.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Engine, Job};
use crate::proto::{self, parse_request, Request, Source};

fn resolve(source: &Source) -> Result<(String, String), String> {
    match source {
        Source::Inline(text) => Ok((text.clone(), "<inline>".to_owned())),
        Source::Path(path) => std::fs::read_to_string(path)
            .map(|text| (text, path.clone()))
            .map_err(|e| format!("{path}: {e}")),
    }
}

/// Processes one request line into zero or more response lines (empty
/// lines produce no response). Blocking: job lines return only once the
/// campaign finished or was rejected.
pub fn process_line(engine: &Engine, line: &str) -> Vec<String> {
    let line = line.trim();
    if line.is_empty() {
        return Vec::new();
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((id, message)) => {
            engine.count_rejected();
            return vec![proto::status_rejected(&id, proto::S_MALFORMED, &message)];
        }
    };
    match request {
        Request::Stats { id } => vec![engine.stats_line(), proto::status_done(&id, false)],
        Request::Job(job) => {
            let read = |source: &Source| match resolve(source) {
                Ok(x) => Ok(x),
                Err(message) => {
                    engine.count_rejected();
                    Err(vec![proto::status_rejected(&job.id, proto::S_MALFORMED, &message)])
                }
            };
            let (spec_source, spec_label) = match read(&job.spec) {
                Ok(x) => x,
                Err(lines) => return lines,
            };
            let (scenario_source, _) = match read(&job.scenario) {
                Ok(x) => x,
                Err(lines) => return lines,
            };
            let resolved = Job {
                spec_source,
                spec_label,
                scenario_source,
                rounds: job.rounds,
                replications: job.replications,
                seed: job.seed,
                lanes: job.lanes,
            };
            match engine.submit(&resolved) {
                Ok(out) => vec![out.metrics_line, proto::status_done(&job.id, out.cache_hit)],
                Err(e) => vec![proto::status_rejected(&job.id, e.code, &e.message)],
            }
        }
    }
}

/// Processes one request line and sends its responses to `out`: every
/// response line with its newline, joined into one buffer and written
/// with a single `write_all`, then flushed. Empty request lines write
/// nothing.
pub fn respond(engine: &Engine, line: &str, out: &mut impl Write) -> std::io::Result<()> {
    let responses = process_line(engine, line);
    if responses.is_empty() {
        return Ok(());
    }
    let mut frame = String::with_capacity(responses.iter().map(|r| r.len() + 1).sum());
    for response in &responses {
        frame.push_str(response);
        frame.push('\n');
    }
    out.write_all(frame.as_bytes())?;
    out.flush()
}

/// Answers every line of `input` on `out` until EOF. A line that is not
/// UTF-8 is answered like any other malformed request.
fn serve_lines(
    engine: &Engine,
    mut input: impl BufRead,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    while input.read_until(b'\n', &mut line)? > 0 {
        respond(engine, &String::from_utf8_lossy(&line), out)?;
        line.clear();
    }
    Ok(())
}

/// Serves requests from stdin, one line at a time, until EOF. Responses
/// go to stdout, flushed per request (CI drives this with a pipe). On
/// EOF the engine drains and stops.
pub fn serve_stdin(engine: &Engine) -> std::io::Result<()> {
    serve_lines(engine, std::io::stdin().lock(), &mut std::io::stdout().lock())?;
    engine.shutdown();
    Ok(())
}

/// A running TCP frontend: an accept loop plus one thread per
/// connection, all sharing one [`Engine`].
pub struct Server {
    engine: Engine,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick) and starts
    /// accepting.
    pub fn start(engine: Engine, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the stop flag.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&engine, &listener, &stop))
        };
        Ok(Server {
            engine,
            local_addr,
            accept_thread: Some(accept_thread),
            stop,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine (for metrics assertions and cache control).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Graceful shutdown: stop accepting connections, reject new jobs,
    /// drain in-flight ones, stop the workers. Connection threads exit
    /// when their clients hang up; they are not joined.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.begin_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.engine.shutdown();
    }
}

fn accept_loop(engine: &Engine, listener: &TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = engine.clone();
                std::thread::spawn(move || handle_connection(&engine, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(engine: &Engine, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Every write is a complete response, so Nagle could only delay it.
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    let _ = serve_lines(engine, BufReader::new(read_half), &mut writer);
}

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM/SIGINT hook that flips a flag checked by
/// [`term_requested`]. The binary's serve loop polls it and drains
/// gracefully instead of dying mid-job.
pub fn install_term_hook() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term_signal as *const () as usize);
        signal(SIGINT, on_term_signal as *const () as usize);
    }
}

/// Whether a termination signal arrived since [`install_term_hook`].
#[must_use]
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}
