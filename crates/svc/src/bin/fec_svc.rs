//! `fec_svc`: the decode-as-a-service daemon.
//!
//! Accepts decode jobs as line-delimited JSON (see [`fec_svc::protocol`])
//! over stdio (default) or a unix socket, schedules them onto one shared
//! deterministic work pool, and streams row-level results back as they
//! complete.  Every event is appended to a per-job replay log under
//! `--log-dir` before delivery, so clients can disconnect and `resume`.
//!
//! Usage: `fec_svc [--stdio | --socket <path>] [--workers <n>]
//! [--max-jobs <n>] [--log-dir <dir>]`
//!
//! * `--stdio` — requests on stdin, events on stdout; EOF or a `shutdown`
//!   request finishes the admitted work and exits.
//! * `--socket <path>` (unix only) — serves multiple concurrent clients on
//!   a unix domain socket; a `shutdown` request from any client exits.
//! * `--workers` — worker threads of the shared pool (default one per
//!   core); results are bit-identical for any worker count.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fec_svc::{EventSink, Service, ServiceConfig};

/// A clonable sink delivering events to one shared writer (stdout or a
/// socket), line-buffered and flushed per event.
#[derive(Clone)]
struct SharedSink(Arc<Mutex<Box<dyn Write + Send>>>);

impl SharedSink {
    fn new(writer: impl Write + Send + 'static) -> Self {
        SharedSink(Arc::new(Mutex::new(Box::new(writer))))
    }
}

impl EventSink for SharedSink {
    fn deliver(&mut self, line: &str) -> bool {
        let mut out = self.0.lock().expect("sink writer poisoned");
        writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
    }
}

enum Transport {
    Stdio,
    Socket(PathBuf),
}

const USAGE: &str =
    "usage: fec_svc [--stdio | --socket <path>] [--workers <n>] [--max-jobs <n>] [--log-dir <dir>]";

/// Reads the command line; a bad flag or value is an error naming it.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Transport, ServiceConfig), String> {
    let mut transport = Transport::Stdio;
    let mut cfg = ServiceConfig::default();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--stdio" => transport = Transport::Stdio,
            "--socket" => transport = Transport::Socket(PathBuf::from(value("a path")?)),
            "--workers" => cfg.workers = count(&arg, &value("a thread count")?)?,
            "--max-jobs" => {
                cfg.max_jobs = count(&arg, &value("a job count")?)?;
                if cfg.max_jobs == 0 {
                    return Err("--max-jobs must be at least 1".into());
                }
            }
            "--log-dir" => cfg.log_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unrecognised argument: {other}")),
        }
    }
    Ok((transport, cfg))
}

fn count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, not {value:?}"))
}

fn main() {
    let (transport, cfg) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("fec_svc: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let service = match Service::new(cfg) {
        Ok(service) => service,
        Err(message) => {
            eprintln!("fec_svc: {message}");
            std::process::exit(1);
        }
    };
    match transport {
        Transport::Stdio => serve_stdio(&service),
        Transport::Socket(path) => serve_socket(&service, &path),
    }
}

/// Stdio transport: one reader thread feeds stdin lines to the service
/// while the main thread runs the scheduler; EOF requests shutdown.
fn serve_stdio(service: &Service) {
    // fec-lint: allow(no-thread-spawn, the daemon transport needs one reader thread; all decode fan-out still goes through the shared WorkPool)
    std::thread::scope(|scope| {
        let sink = SharedSink::new(std::io::stdout());
        // fec-lint: allow(no-thread-spawn, reader thread of the stdio transport; decode work stays on the WorkPool)
        scope.spawn(move || {
            service.serve(std::io::stdin().lock(), &sink);
            service.request_shutdown();
        });
        service.run();
    });
}

/// Unix-socket transport: the scheduler runs on its own thread; the main
/// thread accepts connections (non-blocking, so a shutdown request from
/// any client ends the accept loop) and serves each on a reader thread.
#[cfg(unix)]
fn serve_socket(service: &Service, path: &std::path::Path) {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).expect("bind unix socket");
    listener
        .set_nonblocking(true)
        .expect("set socket non-blocking");
    eprintln!("fec_svc listening on {}", path.display());
    // fec-lint: allow(no-thread-spawn, the daemon transport needs scheduler + per-client reader threads; all decode fan-out still goes through the shared WorkPool)
    std::thread::scope(|scope| {
        // fec-lint: allow(no-thread-spawn, scheduler thread of the socket transport)
        scope.spawn(|| service.run());
        while !service.is_shutdown() {
            match listener.accept() {
                Ok((stream, _)) => {
                    // fec-lint: allow(no-thread-spawn, per-client reader thread; decode work stays on the WorkPool)
                    scope.spawn(move || serve_client(service, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
    });
    let _ = std::fs::remove_file(path);
}

#[cfg(unix)]
fn serve_client(service: &Service, stream: std::os::unix::net::UnixStream) {
    stream
        .set_nonblocking(false)
        .expect("set client stream blocking");
    // A finite read timeout lets the reader notice a daemon-wide shutdown
    // requested by another client instead of blocking forever.
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(250)))
        .expect("set client read timeout");
    let reader = stream.try_clone().expect("clone client stream");
    let sink = SharedSink::new(stream);
    service.serve(std::io::BufReader::new(reader), &sink);
}

#[cfg(not(unix))]
fn serve_socket(_service: &Service, _path: &std::path::Path) {
    eprintln!("--socket requires a unix platform; use --stdio");
    std::process::exit(2);
}
