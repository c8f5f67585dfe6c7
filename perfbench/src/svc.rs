//! The `svc_mixed` workload: the real `fec_svc` daemon on a unix socket,
//! driven in a closed loop by two client connections — a "sweep" client
//! submitting normal-priority BER jobs over all five standards and an
//! "interactive" client submitting high-priority compliance jobs.  Every
//! streamed row is checked against in-process `fec_svc::run_unit` output.

use crate::curve::split_mix64;
use crate::report::Report;
use crate::stats;
use fec_json::Json;
use fec_svc::protocol::as_u64;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of the daemon's pool.
pub const WORKERS: usize = 2;
/// Daemon spawns timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The longest a single client read may block before the job counts as
/// lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// The longest the daemon may take to bind its socket or to exit.
const START_STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// The sweep client's BER jobs: one per daemon codec family over the five
/// standards, with the Eb/N0 grid shifted per job by the run seed.
/// `(fields, base grid)`, where `fields` completes the submit request.
const SWEEP_JOBS: [(&str, [f64; 3]); 6] = [
    (
        r#""standard":"wimax","codec":"layered","block":576,"frames":24"#,
        [1.5, 2.0, 2.5],
    ),
    (
        r#""standard":"wimax","codec":"quantized","block":576,"frames":24,"batch_frames":8"#,
        [1.5, 2.0, 2.5],
    ),
    (
        r#""standard":"80211n","codec":"layered","block":648,"frames":24"#,
        [1.0, 2.0, 3.0],
    ),
    (
        r#""standard":"80222","codec":"layered","block":480,"frames":24"#,
        [1.5, 2.0, 2.5],
    ),
    (
        r#""standard":"lte","codec":"turbo","block":1024,"frames":4"#,
        [0.0, 0.5, 1.0],
    ),
    (
        r#""standard":"dvbrcs","codec":"turbo-bit","block":212,"frames":6"#,
        [1.0, 1.5, 2.0],
    ),
];

/// The interactive client's standards (one corner-scope compliance job
/// each).
const INTERACTIVE_STANDARDS: [&str; 5] = ["wimax", "80211n", "lte", "80222", "dvbrcs"];

/// The two clients' job lists for one seed: the sweep client's BER
/// requests and the interactive client's compliance requests, each in a
/// seed-dependent order.
pub fn job_lists(seed: u64) -> (Vec<String>, Vec<String>) {
    let mut state = seed;
    let mut sweep: Vec<String> = SWEEP_JOBS
        .iter()
        .map(|(fields, grid)| {
            let shift = 0.25 * (split_mix64(&mut state) % 3) as f64;
            let snrs: Vec<String> = grid.iter().map(|s| format!("{:?}", s + shift)).collect();
            format!(
                r#"{{"type":"submit","job":"ber",{fields},"snrs":[{}],"priority":"normal"}}"#,
                snrs.join(",")
            )
        })
        .collect();
    let mut interactive: Vec<String> = INTERACTIVE_STANDARDS
        .iter()
        .map(|s| {
            format!(
                r#"{{"type":"submit","job":"compliance","standard":"{s}","scope":"corners","priority":"high"}}"#
            )
        })
        .collect();
    shuffle(&mut sweep, &mut state);
    shuffle(&mut interactive, &mut state);
    (sweep, interactive)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (split_mix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What a client saw of one job: when it was submitted and every event
/// line with its arrival time (seconds since the run's epoch).
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Index into the client's job list.
    pub template: usize,
    /// Submission time.
    pub submitted: f64,
    /// `(arrival time, event line)` in arrival order.
    pub events: Vec<(f64, String)>,
}

/// A job that passed the closed-loop accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Daemon job id.
    pub job_id: u64,
    /// Arrival time of `accepted`.
    pub accepted: f64,
    /// `(arrival time, raw row data)` in arrival order.
    pub rows: Vec<(f64, String)>,
    /// Arrival time of `done`.
    pub done: f64,
}

/// The closed-loop accounting of one job: exactly one `accepted` first,
/// then `row` events of that job whose indices are `0..n` with no gap or
/// duplicate, then exactly one `done` with status `completed` and
/// `rows == n`.  Anything else — `rejected`, `error`, a foreign job id, a
/// missing `done` — is an error naming the problem.
pub fn account(events: &[(f64, String)]) -> Result<JobSummary, String> {
    let mut job_id = None;
    let mut accepted = 0.0;
    let mut rows: Vec<(u64, f64, String)> = Vec::new();
    let mut done = None;
    for (at, line) in events {
        if done.is_some() {
            return Err(format!("event after done: {line}"));
        }
        let event = Json::parse(line).map_err(|e| format!("unparsable event {line:?}: {e}"))?;
        let ty = event.get("type").and_then(Json::as_str).unwrap_or("");
        let id = event.get("job_id").and_then(as_u64);
        match (ty, job_id) {
            ("accepted", None) => {
                job_id = Some(id.ok_or("accepted without job_id")?);
                accepted = *at;
            }
            ("accepted", Some(_)) => return Err("second accepted".into()),
            (_, None) => return Err(format!("{ty} before accepted: {line}")),
            ("row", Some(j)) if id == Some(j) => {
                let row = event
                    .get("row")
                    .and_then(as_u64)
                    .ok_or("row without index")?;
                rows.push((
                    row,
                    *at,
                    raw_data(line).ok_or("row without data")?.to_string(),
                ));
            }
            ("done", Some(j)) if id == Some(j) => {
                let status = event.get("status").and_then(Json::as_str).unwrap_or("");
                if status != "completed" {
                    return Err(format!("job ended with status {status:?}: {line}"));
                }
                let n = event
                    .get("rows")
                    .and_then(as_u64)
                    .ok_or("done without rows")?;
                if n != rows.len() as u64 {
                    return Err(format!("done reports {n} rows, {} arrived", rows.len()));
                }
                done = Some(*at);
            }
            _ => return Err(format!("unexpected event: {line}")),
        }
    }
    let done = done.ok_or("no done event")?;
    let mut indices: Vec<u64> = rows.iter().map(|r| r.0).collect();
    indices.sort_unstable();
    if indices.iter().enumerate().any(|(i, &r)| r != i as u64) {
        return Err(format!(
            "row indices are not 0..{}: {indices:?}",
            rows.len()
        ));
    }
    Ok(JobSummary {
        job_id: job_id.expect("accepted seen"),
        accepted,
        rows: rows.into_iter().map(|(_, at, data)| (at, data)).collect(),
        done,
    })
}

/// The exact bytes of a row event's `data` member (always the last key).
fn raw_data(line: &str) -> Option<&str> {
    let start = line.find(r#","data":"#)? + r#","data":"#.len();
    line.get(start..line.len().checked_sub(1)?)
}

/// Whether an event ends a job on the client's side.
fn terminal(line: &str) -> bool {
    [
        "\"type\":\"done\"",
        "\"type\":\"rejected\"",
        "\"type\":\"error\"",
    ]
    .iter()
    .any(|t| line.contains(t))
}

/// The in-process reference of one request: the sorted row texts of all
/// its units, and each unit's `run_unit` wall time in milliseconds.
#[derive(Debug, Clone)]
struct Reference {
    kind: &'static str,
    rows: Vec<String>,
    unit_ms: Vec<f64>,
}

fn reference(request: &str) -> Result<Reference, String> {
    let json = Json::parse(request).map_err(|e| format!("{e}"))?;
    let spec = fec_svc::job::parse(&json)?;
    let mut rows = Vec::new();
    let mut unit_ms = Vec::new();
    for unit in &spec.units {
        let start = Instant::now();
        let unit_rows = fec_svc::run_unit(unit)?;
        unit_ms.push(1e3 * start.elapsed().as_secs_f64());
        rows.extend(unit_rows.iter().map(Json::to_string));
    }
    rows.sort();
    Ok(Reference {
        kind: spec.kind,
        rows,
        unit_ms,
    })
}

/// A running daemon; killed and reaped on drop if it has not exited.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits until its socket accepts a connection,
    /// returning it with the elapsed seconds.
    fn spawn(binary: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let socket = dir.join("d.sock");
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let child = Command::new(binary)
            .arg("--socket")
            .arg(&socket)
            .args([
                "--workers",
                &WORKERS.to_string(),
                "--max-jobs",
                "8",
                "--log-dir",
            ])
            .arg(dir.join("logs"))
            // glibc gives each new thread its own malloc arena, and the
            // daemon starts fresh pool threads per batch: without a cap the
            // peak RSS depends on how many arenas the schedule happened to
            // touch rather than on the daemon's data.
            .env("MALLOC_ARENA_MAX", WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut daemon = Daemon { child, socket };
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > START_STOP_TIMEOUT {
                return Err("daemon socket never accepted".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn connect(&self) -> Result<Client, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("{e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("{e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Peak RSS of the daemon process.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::env::peak_rss_mb(Some(self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut client) = self.connect() {
            let _ = client.writer.write_all(b"{\"type\":\"shutdown\"}\n");
            let mut line = String::new();
            let _ = client.reader.read_line(&mut line);
        }
        let start = Instant::now();
        while start.elapsed() < START_STOP_TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("daemon did not exit after shutdown".into())
    }

    fn kill(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Submits `request` and collects its events until the job ends.
    fn run_job(
        &mut self,
        template: usize,
        request: &str,
        epoch: Instant,
    ) -> Result<JobTrace, String> {
        let submitted = epoch.elapsed().as_secs_f64();
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("submit: {e}"))?;
        let mut events = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            let at = epoch.elapsed().as_secs_f64();
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            let line = line.trim_end().to_string();
            let end = terminal(&line);
            events.push((at, line));
            if end {
                return Ok(JobTrace {
                    template,
                    submitted,
                    events,
                });
            }
        }
    }
}

/// One client's closed loop: one untimed pass over its job list as
/// warm-up, then jobs back to back until `seconds` have passed since the
/// shared start.
fn client_loop(
    daemon: &Daemon,
    jobs: &[String],
    epoch: Instant,
    start: &std::sync::Barrier,
    seconds: f64,
) -> Result<(Vec<JobTrace>, Vec<JobTrace>, f64), String> {
    let warm_up = || -> Result<(Client, Vec<JobTrace>), String> {
        let mut client = daemon.connect()?;
        let mut warm = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            warm.push(client.run_job(i, job, epoch)?);
        }
        Ok((client, warm))
    };
    let warmed = warm_up();
    // Both clients pass the barrier even when one failed, so neither waits
    // forever for the other.
    start.wait();
    let (mut client, warm) = warmed?;
    let begin = epoch.elapsed().as_secs_f64();
    let mut timed = Vec::new();
    let mut i = 0;
    while epoch.elapsed().as_secs_f64() - begin < seconds {
        timed.push(client.run_job(i % jobs.len(), &jobs[i % jobs.len()], epoch)?);
        i += 1;
    }
    Ok((warm, timed, begin))
}

/// Runs the workload: `svc_mixed`'s end-to-end metrics and the `fec-svc.*`
/// per-layer metrics, with every job checked.
pub fn run(binary: &Path, out: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = out.join(format!("svc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = short_path(&dir);
    let result = run_in(binary, &dir, seed, seconds);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(binary: &Path, dir: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    for _ in 1..SETUP_REPS {
        let (daemon, s) = Daemon::spawn(binary, dir)?;
        setup.push(s);
        daemon.shutdown()?;
    }
    let (daemon, s) = Daemon::spawn(binary, dir)?;
    setup.push(s);

    let (sweep, interactive) = job_lists(seed);
    let epoch = Instant::now();
    let barrier = std::sync::Barrier::new(2);
    let (sweep_out, interactive_out) = std::thread::scope(|scope| {
        let a = scope.spawn(|| client_loop(&daemon, &sweep, epoch, &barrier, seconds));
        let b = scope.spawn(|| client_loop(&daemon, &interactive, epoch, &barrier, seconds));
        (a.join(), b.join())
    });
    let peak = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    daemon.shutdown()?;
    let (sweep_warm, sweep_timed, sweep_begin) =
        sweep_out.map_err(|_| "sweep client panicked")??;
    let (int_warm, int_timed, int_begin) =
        interactive_out.map_err(|_| "interactive client panicked")??;

    // Untimed references: every distinct request once, in process.
    let sweep_refs = sweep
        .iter()
        .map(|r| reference(r))
        .collect::<Result<Vec<_>, _>>()?;
    let int_refs = interactive
        .iter()
        .map(|r| reference(r))
        .collect::<Result<Vec<_>, _>>()?;

    let check = |trace: &JobTrace, refs: &[Reference], report: &mut Report| {
        let summary = match account(&trace.events) {
            Ok(s) => s,
            Err(why) => {
                report.fail(1, format!("job {}: {why}", trace.template));
                return None;
            }
        };
        let mut rows: Vec<&str> = summary.rows.iter().map(|(_, d)| d.as_str()).collect();
        rows.sort_unstable();
        if rows != refs[trace.template].rows {
            report.fail(
                1,
                format!("job {}: rows differ from run_unit", summary.job_id),
            );
            return None;
        }
        report.pass();
        Some(summary)
    };
    for trace in &sweep_warm {
        check(trace, &sweep_refs, &mut report);
    }
    for trace in &int_warm {
        check(trace, &int_refs, &mut report);
    }

    let mut sweep_latencies = Vec::new();
    let mut accepts = Vec::new();
    let mut last_unit_shares = Vec::new();
    let mut last_done: f64 = 0.0;
    for trace in &sweep_timed {
        if let Some(s) = check(trace, &sweep_refs, &mut report) {
            let latency = s.done - trace.submitted;
            sweep_latencies.push(latency);
            accepts.push(s.accepted - trace.submitted);
            last_done = last_done.max(s.done);
            if s.rows.len() >= 2 {
                let penultimate = s.rows[s.rows.len() - 2].0;
                last_unit_shares.push((s.done - penultimate) / latency);
            }
        }
    }
    let mut int_latencies = Vec::new();
    let mut first_rows = Vec::new();
    let mut queue_waits = Vec::new();
    for trace in &int_timed {
        if let Some(s) = check(trace, &int_refs, &mut report) {
            int_latencies.push(s.done - trace.submitted);
            accepts.push(s.accepted - trace.submitted);
            last_done = last_done.max(s.done);
            if let Some((first, _)) = s.rows.first() {
                let first_ms = 1e3 * (first - trace.submitted);
                first_rows.push(first_ms);
                queue_waits.push(first_ms - int_refs[trace.template].unit_ms[0]);
            }
        }
    }
    let latencies = [sweep_latencies.as_slice(), &int_latencies].concat();
    let window = last_done - sweep_begin.min(int_begin);
    let unit_mean = |kind: &str| {
        let ms: Vec<f64> = sweep_refs
            .iter()
            .chain(&int_refs)
            .filter(|r| r.kind == kind)
            .flat_map(|r| r.unit_ms.iter().copied())
            .collect();
        stats::mean(&ms).unwrap_or(f64::NAN)
    };
    let ms = |v: Option<f64>| 1e3 * v.unwrap_or(f64::NAN);
    let tail = stats::tail(&latencies);
    report.set("setup_s", stats::median(&setup).unwrap(), "s");
    report.set("throughput_per_s", latencies.len() as f64 / window, "1/s");
    report.set("latency_p50_ms", ms(stats::median(&latencies)), "ms");
    report.set("latency_tail_ms", ms(tail.map(|t| t.value)), "ms");
    report.set("peak_rss_mb", peak, "MB");
    report.set("fec-svc.accept_ms", ms(stats::median(&accepts)), "ms");
    report.set(
        "fec-svc.first_row_p50_ms",
        stats::median(&first_rows).unwrap_or(f64::NAN),
        "ms",
    );
    report.set(
        "fec-svc.queue_wait_ms",
        stats::median(&queue_waits).unwrap_or(f64::NAN),
        "ms",
    );
    report.set("fec-svc.unit_ber_ms", unit_mean("ber"), "ms");
    report.set("fec-svc.unit_compliance_ms", unit_mean("compliance"), "ms");
    report.set(
        "fec-svc.last_unit_share_pct",
        100.0 * stats::median(&last_unit_shares).unwrap_or(f64::NAN),
        "%",
    );
    report.detail("operation", "one job, submit to done");
    report.detail(
        "load",
        format!("closed loop, 2 clients (sweep + interactive), daemon with {WORKERS} workers"),
    );
    report.detail("jobs", latencies.len());
    report.detail("sweep_jobs", sweep_timed.len());
    report.detail("interactive_jobs", int_timed.len());
    report.detail("warmup_jobs", sweep_warm.len() + int_warm.len());
    report.detail("setup_samples", setup.len());
    report.detail("first_row_samples", first_rows.len());
    report.detail("sweep_p50_ms", ms(stats::median(&sweep_latencies)));
    report.detail("interactive_p50_ms", ms(stats::median(&int_latencies)));
    if let Some(t) = tail {
        report.detail("tail_percentile", t.percentile);
        report.detail("tail_samples_beyond", t.beyond);
    }
    Ok(report)
}

/// `path` relative to the working directory when that is shorter, so the
/// socket path stays within the unix limit of about 100 bytes.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(lines: &[&str]) -> Vec<(f64, String)> {
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| (i as f64, l.to_string()))
            .collect()
    }

    const ACCEPTED: &str =
        r#"{"type":"accepted","job_id":7,"job":"ber","label":"x","units":2,"priority":"normal"}"#;
    const ROW0: &str = r#"{"type":"row","job_id":7,"row":0,"data":{"a":1}}"#;
    const ROW1: &str = r#"{"type":"row","job_id":7,"row":1,"data":{"a":2}}"#;
    const DONE2: &str = r#"{"type":"done","job_id":7,"rows":2,"status":"completed"}"#;

    #[test]
    fn a_complete_job_accounts_cleanly() {
        let s = account(&events(&[ACCEPTED, ROW1, ROW0, DONE2])).unwrap();
        assert_eq!(s.job_id, 7);
        assert_eq!(s.accepted, 0.0);
        assert_eq!(s.done, 3.0);
        // Rows keep arrival order and their exact data bytes.
        assert_eq!(
            s.rows,
            vec![
                (1.0, "{\"a\":2}".to_string()),
                (2.0, "{\"a\":1}".to_string())
            ]
        );
    }

    #[test]
    fn lost_duplicated_or_foreign_events_are_errors() {
        let dup = r#"{"type":"row","job_id":7,"row":0,"data":{"a":1}}"#;
        let foreign = r#"{"type":"row","job_id":8,"row":1,"data":{"a":2}}"#;
        let done1 = r#"{"type":"done","job_id":7,"rows":1,"status":"completed"}"#;
        let failed = r#"{"type":"done","job_id":7,"rows":2,"status":"failed","error":"x"}"#;
        let rejected = r#"{"type":"rejected","reason":"at capacity"}"#;
        let cases: [(&[&str], &str); 8] = [
            (&[ACCEPTED, ROW0, DONE2], "done reports 2 rows, 1 arrived"),
            (&[ACCEPTED, ROW0, dup, DONE2], "not 0..2"),
            (&[ACCEPTED, ROW0, foreign, DONE2], "unexpected event"),
            (&[ACCEPTED, ROW0, ROW1], "no done"),
            (&[ACCEPTED, ROW0, done1, DONE2], "event after done"),
            (&[ACCEPTED, ACCEPTED, ROW0, ROW1, DONE2], "second accepted"),
            (&[ACCEPTED, ROW0, ROW1, failed], "status \"failed\""),
            (&[rejected], "before accepted"),
        ];
        for (lines, needle) in cases {
            let err = account(&events(lines)).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn raw_data_is_the_exact_member_text() {
        assert_eq!(raw_data(ROW0), Some("{\"a\":1}"));
        let nested = r#"{"type":"row","job_id":1,"row":0,"data":{"point":{"ber":1.5e-5}}}"#;
        assert_eq!(raw_data(nested), Some(r#"{"point":{"ber":1.5e-5}}"#));
        assert_eq!(raw_data(DONE2), None);
    }

    #[test]
    fn job_lists_cover_every_template_in_a_seeded_order() {
        let (sweep, interactive) = job_lists(3);
        assert_eq!(sweep.len(), SWEEP_JOBS.len());
        assert_eq!(interactive.len(), INTERACTIVE_STANDARDS.len());
        assert_eq!(job_lists(3), (sweep.clone(), interactive.clone()));
        for s in ["wimax", "80211n", "80222", "lte", "dvbrcs"] {
            let tag = format!("\"standard\":\"{s}\"");
            assert!(sweep.iter().any(|j| j.contains(&tag)), "{s}");
            assert!(interactive.iter().any(|j| j.contains(&tag)), "{s}");
        }
        for request in sweep.iter().chain(&interactive) {
            let json = Json::parse(request).unwrap();
            assert!(fec_svc::job::parse(&json).is_ok(), "{request}");
        }
    }
}
