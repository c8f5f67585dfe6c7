//! `fec_svc`: the decode-as-a-service daemon.
//!
//! Accepts decode jobs as line-delimited JSON (see [`fec_svc::protocol`])
//! over stdio (default) or a unix socket, schedules them onto one shared
//! deterministic work pool, and streams row-level results back as they
//! complete.  Every event is appended to one event log,
//! `<log-dir>/events.ndjson`, before delivery, so clients can disconnect
//! and `resume`.  The daemon creates the log, truncating any earlier one,
//! when it admits its first job.
//!
//! Usage: `fec_svc [--stdio | --socket <path>] [--workers <n>]
//! [--max-jobs <n>] [--log-dir <dir>]`
//!
//! * `--stdio` — requests on stdin, events on stdout; EOF or a `shutdown`
//!   request finishes the admitted work and exits.
//! * `--socket <path>` (unix only) — serves multiple concurrent clients on
//!   a unix domain socket; a `shutdown` request from any client exits.  A
//!   socket that cannot be bound exits with status 1.
//! * `--workers` — worker threads of the shared pool (default one per
//!   core, at most [`fec_sched::MAX_WORKERS`]); results are bit-identical
//!   for any worker count.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fec_svc::{EventSink, Service, ServiceConfig};

/// A clonable sink delivering events to one shared writer (stdout or a
/// socket), each event and its newline in one write, flushed per event.
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
        out.write_all(format!("{line}\n").as_bytes())
            .and_then(|()| out.flush())
            .is_ok()
    }
}

enum Transport {
    Stdio,
    Socket(PathBuf),
}

const USAGE: &str =
    "usage: fec_svc [--stdio | --socket <path>] [--workers <n>] [--max-jobs <n>] [--log-dir <dir>]";

/// Reads the command line; a bad flag or value is an error naming it.
/// `--workers` goes through the study binaries' shared parser, which also
/// bounds it.
fn parse_args(args: impl Iterator<Item = String>) -> Result<(Transport, ServiceConfig), String> {
    let (workers, rest) = decoder_bench::workers_flag_from_args(args)?;
    let mut transport = Transport::Stdio;
    let mut cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--stdio" => transport = Transport::Stdio,
            "--socket" => transport = Transport::Socket(PathBuf::from(value("a path")?)),
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
    let served = match transport {
        Transport::Stdio => {
            serve_stdio(&service);
            Ok(())
        }
        Transport::Socket(path) => serve_socket(&service, &path),
    };
    if let Err(message) = served {
        eprintln!("fec_svc: {message}");
        std::process::exit(1);
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
/// A socket that cannot be bound is an error naming its path, returned
/// before any thread starts.
#[cfg(unix)]
fn serve_socket(service: &Service, path: &std::path::Path) -> Result<(), String> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .and_then(|listener| listener.set_nonblocking(true).map(|()| listener))
        .map_err(|e| format!("cannot bind the socket {}: {e}", path.display()))?;
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
    Ok(())
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
fn serve_socket(_service: &Service, _path: &std::path::Path) -> Result<(), String> {
    eprintln!("--socket requires a unix platform; use --stdio");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Transport, ServiceConfig), String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn workers_above_the_bound_are_rejected() {
        let bound = fec_sched::MAX_WORKERS.to_string();
        assert_eq!(
            parse(&["--workers", &bound]).unwrap().1.workers,
            fec_sched::MAX_WORKERS
        );
        for count in [fec_sched::MAX_WORKERS + 1, usize::MAX] {
            assert_eq!(
                parse(&["--workers", &count.to_string()]).err(),
                Some(format!(
                    "--workers must be at most {}, not {count}",
                    fec_sched::MAX_WORKERS
                ))
            );
        }
    }
}
