//! The job service: admission control, one shared scheduler pool, event
//! fan-out and the replay log.
//!
//! [`Service`] is transport-agnostic: readers (stdio, unix socket, tests)
//! feed request lines into [`Service::handle_line`] from any thread, while
//! one thread runs the scheduler ([`Service::run`]).  All admitted jobs
//! share ONE long-lived served run of the [`WorkPool`]
//! ([`PoolRun::served`](fec_sched::PoolRun::served)): `submit` hands a
//! job's units to it under the state lock, with the job's
//! [`Priority`](fec_sched::Priority) and [`CancelToken`], and each unit
//! starts on the next free worker.  A high-priority job's units dispatch
//! first even while a low-priority job is mid-curve, and a job admitted
//! while a long unit runs starts on an idle worker at once.  The completion
//! handler books each unit's rows on the scheduler thread.  Compliance
//! units share the service's [`MappingStore`], so a code is mapped by the
//! first unit that needs it and only its NoC phase runs after that.
//!
//! Every event of every job is appended to one log,
//! `<log_dir>/`[`EVENT_LOG`], *before* it is delivered to the client, in
//! one `write` of the line and its newline, under the state lock.  The
//! service opens the log when it admits its first job, truncating what an
//! earlier daemon left there: job ids restart at 1, so the log holds only
//! this service's jobs.  Each job keeps the byte offset and length of its
//! lines.  A client that disappears mid-job (its sink returns `false`)
//! simply stops receiving events — the job keeps running and logging — and
//! a later `resume` request reads back exactly that job's lines, replays
//! them from any row index and reattaches the new client for rows still to
//! come.  A resume costs the size of its job, never that of the log.  The
//! service keeps the last [`KEPT_FINISHED_JOBS`] finished jobs, so its
//! memory does not grow with the jobs it has served; a `resume` or `cancel`
//! of an older one is answered with one `error` event.
//!
//! Neither does its disk: when a job finishes and the log is longer than
//! [`COMPACT_LOG_FLOOR`] and than twice the bytes of the jobs the service
//! still keeps, the kept lines are copied, in their order, to a temporary
//! file that is renamed over the log, and every kept job's offsets move
//! with them, all under the state lock.  A compaction that fails leaves
//! the old log in place and is retried once the log has grown by another
//! [`COMPACT_LOG_FLOOR`].
//!
//! File-system failures end a job, never the daemon: a submit whose log
//! cannot be created is rejected, and the next admission tries again.  A
//! failed append sends the job that wrote it one `error` event and ends it
//! with `done {status: "failed"}`; the log is closed, and the next append
//! reopens it in append-and-create mode.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fec_json::Json;
use fec_sched::{Admission, CancelToken, Job, JobOutcome, WorkPool};
use noc_decoder::MappingStore;

use crate::job;
use crate::protocol::{self, Request};

/// Longest request line [`Service::serve`] accepts, in bytes (newline
/// excluded).  Requests are small objects; anything longer is rejected
/// without ever being buffered whole.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// File name of the event log in the service's log directory.
pub const EVENT_LOG: &str = "events.ndjson";

/// Finished jobs the service keeps for `resume` and `cancel`: a `done` past
/// this many drops the job that finished first.
pub const KEPT_FINISHED_JOBS: usize = 1024;

/// Length in bytes below which the event log is never compacted; above it,
/// the log is compacted when it holds more than twice the bytes of the
/// jobs the service keeps.
pub const COMPACT_LOG_FLOOR: u64 = 256 * 1024;

/// Where a service delivers protocol events for one client.
///
/// `deliver` returns `false` when the client is gone (closed pipe, dead
/// socket); the service then drops the sink while the job keeps running —
/// its events stay replayable from the job log.
pub trait EventSink: Send {
    /// Delivers one event line (without trailing newline).
    fn deliver(&mut self, line: &str) -> bool;
}

/// Service settings.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared pool (`0` = one per core).
    pub workers: usize,
    /// Admission limit: queued + running jobs (`accepted` but not `done`).
    pub max_jobs: usize,
    /// Directory of the event log ([`EVENT_LOG`]).
    pub log_dir: PathBuf,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            max_jobs: 8,
            log_dir: PathBuf::from("svc-logs"),
        }
    }
}

/// The service's one append-only event log.
#[derive(Default)]
struct EventLog {
    path: PathBuf,
    /// The open log: `None` before the first admission and after a failed
    /// append.
    file: Option<File>,
    /// Length of the log in bytes: where the next line starts.
    end: u64,
    /// Whether the log was opened before: the first open truncates it,
    /// every later one appends.
    opened: bool,
    /// Bytes of the lines of the jobs the service keeps.
    kept: u64,
    /// After a failed compaction, the length the log must pass before the
    /// next attempt.
    retry_after: u64,
}

impl EventLog {
    /// The open log, opening it if it is closed: truncated the first time,
    /// in append-and-create mode after that.
    fn open(&mut self) -> Result<&mut File, String> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let opened = if self.opened {
                    OpenOptions::new()
                        .append(true)
                        .create(true)
                        .open(&self.path)
                        .and_then(|file| Ok((file.metadata()?.len(), file)))
                } else {
                    File::create(&self.path).map(|file| (0, file))
                };
                let (end, file) = opened
                    .map_err(|e| format!("cannot create job log {}: {e}", self.path.display()))?;
                self.end = end;
                self.opened = true;
                file
            }
        };
        Ok(self.file.insert(file))
    }

    /// Appends one event line and its newline in one write, returning the
    /// line's offset and length.  A failed write closes the log.
    fn append(&mut self, line: &str) -> Result<(u64, usize), String> {
        let line = format!("{line}\n");
        if let Err(e) = self.open()?.write_all(line.as_bytes()) {
            self.file = None;
            return Err(format!("job log {}: {e}", self.path.display()));
        }
        let offset = self.end;
        self.end += line.len() as u64;
        Ok((offset, line.len()))
    }

    /// Whether the log is due for [`compact`](EventLog::compact): past the
    /// floor, past twice the kept bytes and past a failed attempt's mark.
    fn wants_compaction(&self) -> bool {
        self.end > COMPACT_LOG_FLOOR.max(2 * self.kept).max(self.retry_after)
    }

    /// Replaces the log with the lines at `lines` (offset and length each,
    /// in log order), written to a temporary file that is renamed over it,
    /// and returns their new offsets.  On failure the old log stays.
    fn compact(&mut self, lines: &[(u64, usize)]) -> std::io::Result<Vec<u64>> {
        let compacting = self.path.with_extension("ndjson.compacting");
        let copied = (|| -> std::io::Result<Vec<u64>> {
            let mut from = BufReader::new(File::open(&self.path)?);
            let mut to = BufWriter::new(File::create(&compacting)?);
            let (mut read_to, mut written) = (0, 0);
            let mut line = Vec::new();
            let mut offsets = Vec::with_capacity(lines.len());
            for &(offset, len) in lines {
                let gap = i64::try_from(offset - read_to).map_err(std::io::Error::other)?;
                from.seek_relative(gap)?;
                line.resize(len, 0);
                from.read_exact(&mut line)?;
                to.write_all(&line)?;
                offsets.push(written);
                read_to = offset + len as u64;
                written += len as u64;
            }
            to.flush()?;
            std::fs::rename(&compacting, &self.path)?;
            Ok(offsets)
        })();
        match copied {
            Ok(offsets) => {
                // the open descriptor still points at the replaced file
                self.file = None;
                self.end = lines.iter().map(|&(_, len)| len as u64).sum();
                self.retry_after = 0;
                Ok(offsets)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&compacting);
                self.retry_after = self.end + COMPACT_LOG_FLOOR;
                Err(e)
            }
        }
    }

    /// Reads back the lines at `lines` (offset and length each), without
    /// their newlines.
    fn read(&self, lines: &[(u64, usize)]) -> Result<Vec<String>, String> {
        let failed =
            |e: std::io::Error| format!("cannot read job log {}: {e}", self.path.display());
        let mut file = File::open(&self.path).map_err(failed)?;
        lines
            .iter()
            .map(|&(offset, len)| {
                let mut bytes = vec![0; len];
                file.seek(SeekFrom::Start(offset))
                    .and_then(|_| file.read_exact(&mut bytes))
                    .map_err(failed)?;
                bytes.pop();
                String::from_utf8(bytes).map_err(|e| failed(std::io::Error::other(e)))
            })
            .collect()
    }
}

/// The admission state of one job.
struct JobEntry {
    cancel: CancelToken,
    units_total: usize,
    units_finished: usize,
    units_cancelled: usize,
    rows: u64,
    error: Option<String>,
    finished: bool,
    sink: Option<Box<dyn EventSink>>,
    /// The offset and length of each of the job's lines in the event log,
    /// in order; `None` once an append of the job failed.
    logged: Option<Vec<(u64, usize)>>,
}

impl JobEntry {
    /// Appends the event to the event log, then delivers it to the attached
    /// client, dropping the sink on a dead connection.  A failed append
    /// [fails](JobEntry::fail) the job after delivery.
    fn emit(&mut self, log: &mut EventLog, event: &Json) {
        let line = event.to_string();
        let appended = self.append(log, &line);
        self.deliver(&line);
        if let Err(message) = appended {
            self.fail(message);
        }
    }

    /// Appends one event line of the job to the event log.  A failed append
    /// drops the job's log and returns the failure.
    fn append(&mut self, log: &mut EventLog, line: &str) -> Result<(), String> {
        let Some(logged) = self.logged.as_mut() else {
            return Ok(());
        };
        match log.append(line) {
            Ok(at) => {
                logged.push(at);
                log.kept += at.1 as u64;
                Ok(())
            }
            Err(message) => {
                log.kept -= self.logged_bytes();
                self.logged = None;
                Err(message)
            }
        }
    }

    /// Bytes of the job's lines in the event log.
    fn logged_bytes(&self) -> u64 {
        self.logged
            .iter()
            .flatten()
            .map(|&(_, len)| len as u64)
            .sum()
    }

    /// Emits one result row.  Once an append of the job has failed, the job
    /// is ending and its rows are dropped.
    fn emit_row(&mut self, log: &mut EventLog, job_id: u64, data: Json) {
        if self.logged.is_none() {
            return;
        }
        let event = protocol::row(job_id, self.rows, data);
        self.emit(log, &event);
        self.rows += 1;
    }

    fn deliver(&mut self, line: &str) {
        if let Some(sink) = self.sink.as_mut() {
            if !sink.deliver(line) {
                self.sink = None;
            }
        }
    }

    /// Ends the job on an I/O failure: the client gets one `error` event,
    /// the job's remaining units retire, and `done {status: "failed"}`
    /// follows once they have.  The first failure wins.
    fn fail(&mut self, message: String) {
        if self.error.is_none() {
            self.deliver(&protocol::error(&message).to_string());
            self.error = Some(message);
        }
        self.cancel.cancel();
    }
}

struct State {
    next_job_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    /// The ids of the finished jobs in `jobs`, in the order they finished.
    finished: VecDeque<u64>,
    shutdown: bool,
    /// Where `submit` hands each unit, keyed by its job id: the queue of
    /// the scheduler's served run.  Closed once shutdown is requested.
    admission: Admission<'static, UnitResult>,
    log: EventLog,
}

/// The decode service: shared by the transport reader threads and the
/// scheduler thread.
pub struct Service {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// The LDPC mappings of every compliance unit run so far, kept for the
    /// service's life.  Compliance units run only at the paper design
    /// point, so it holds at most one entry per registry LDPC code.
    mappings: Arc<MappingStore>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service").field("cfg", &self.cfg).finish()
    }
}

type UnitResult = Result<Vec<Json>, String>;

impl Service {
    /// Creates the service and its log directory.  The event log itself is
    /// created by the first admission.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory if it cannot be created.
    pub fn new(cfg: ServiceConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.log_dir).map_err(|e| {
            format!(
                "cannot create the log directory {}: {e}",
                cfg.log_dir.display()
            )
        })?;
        let log = EventLog {
            path: cfg.log_dir.join(EVENT_LOG),
            ..EventLog::default()
        };
        Ok(Service {
            cfg,
            state: Mutex::new(State {
                next_job_id: 1,
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                shutdown: false,
                admission: Admission::new(),
                log,
            }),
            mappings: Arc::new(MappingStore::new()),
        })
    }

    /// The LDPC mappings the service keeps across compliance units.
    pub fn mappings(&self) -> &MappingStore {
        &self.mappings
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("service state poisoned")
    }

    /// Serves one client of a transport: reads request lines from `reader`
    /// and handles each with [`handle_line`](Service::handle_line) until end
    /// of input, a read error or a `shutdown` request.  A read that times
    /// out (a socket with a read timeout) only checks whether the daemon is
    /// shutting down.
    ///
    /// A line longer than [`MAX_REQUEST_LINE`] bytes, or one that is not
    /// UTF-8, gets one `error` event.  The excess of an over-long line is
    /// discarded as it arrives, so a client cannot grow the daemon's memory.
    pub fn serve<R: BufRead, S: EventSink + Clone + 'static>(&self, mut reader: R, sink: &S) {
        let mut line = Vec::new();
        let mut overlong = false;
        loop {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if self.is_shutdown() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            };
            let at_eof = chunk.is_empty();
            let newline = chunk.iter().position(|&b| b == b'\n');
            let part = &chunk[..newline.unwrap_or(chunk.len())];
            if line.len() + part.len() > MAX_REQUEST_LINE {
                overlong = true;
                line.clear();
            } else if !overlong {
                line.extend_from_slice(part);
            }
            let used = part.len() + usize::from(newline.is_some());
            reader.consume(used);
            if newline.is_none() && !at_eof {
                continue;
            }
            let reply = if std::mem::take(&mut overlong) {
                Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
            } else {
                String::from_utf8(std::mem::take(&mut line))
                    .map_err(|_| "request line is not valid UTF-8".to_string())
            };
            match reply {
                Ok(text) => {
                    if !self.handle_line(&text, sink) {
                        return;
                    }
                }
                Err(reason) => {
                    sink.clone().deliver(&protocol::error(&reason).to_string());
                }
            }
            if at_eof {
                return;
            }
        }
    }

    /// Handles one request line from a client whose events go to `sink`
    /// (cloned per admitted job).  Returns `false` on a shutdown request —
    /// the transport should stop reading from this client.
    pub fn handle_line<S: EventSink + Clone + 'static>(&self, line: &str, sink: &S) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        match protocol::parse_request(line) {
            Err(reason) => {
                sink.clone().deliver(&protocol::error(&reason).to_string());
                true
            }
            Ok(Request::Submit(spec)) => {
                self.submit(&spec, Box::new(sink.clone()));
                true
            }
            Ok(Request::Cancel { job_id }) => {
                self.cancel(job_id, sink);
                true
            }
            Ok(Request::Resume { job_id, from_row }) => {
                self.resume(job_id, from_row, Box::new(sink.clone()));
                true
            }
            Ok(Request::Shutdown) => {
                sink.clone().deliver(&protocol::shutting_down().to_string());
                self.request_shutdown();
                false
            }
        }
    }

    /// Validates and admits one job, replying `accepted` or `rejected` on
    /// `sink`; the sink stays attached for the job's events.  The job's
    /// units go to the scheduler's run before the state lock is released,
    /// so the shutdown check and the close cannot interleave with them.
    fn submit(&self, spec: &Json, mut sink: Box<dyn EventSink>) {
        let parsed = match job::parse(spec) {
            Ok(parsed) => parsed,
            Err(reason) => {
                sink.deliver(&protocol::rejected(&reason).to_string());
                return;
            }
        };
        let mut st = self.lock();
        if st.shutdown {
            drop(st);
            sink.deliver(&protocol::rejected("service is shutting down").to_string());
            return;
        }
        let active = st.jobs.len() - st.finished.len();
        if active >= self.cfg.max_jobs {
            drop(st);
            sink.deliver(
                &protocol::rejected(&format!(
                    "at capacity: {active} active jobs (max {})",
                    self.cfg.max_jobs
                ))
                .to_string(),
            );
            return;
        }
        if let Err(reason) = st.log.open() {
            drop(st);
            sink.deliver(&protocol::rejected(&reason).to_string());
            return;
        }
        let id = st.next_job_id;
        st.next_job_id += 1;
        let accepted = protocol::accepted(
            id,
            parsed.kind,
            &parsed.label,
            parsed.units.len(),
            parsed.priority.name(),
        );
        let mut entry = JobEntry {
            cancel: CancelToken::new(),
            units_total: parsed.units.len(),
            units_finished: 0,
            units_cancelled: 0,
            rows: 0,
            error: None,
            finished: false,
            sink: Some(sink),
            logged: Some(Vec::new()),
        };
        entry.emit(&mut st.log, &accepted);
        for unit in parsed.units {
            let mappings = Arc::clone(&self.mappings);
            let unit = Job::new(id as usize, move || {
                job::run_unit_with_store(&unit, &mappings)
            })
            .with_priority(parsed.priority)
            .with_cancel(entry.cancel.clone());
            st.admission
                .submit(unit)
                .expect("the scheduler's run closes only at shutdown");
        }
        st.jobs.insert(id, entry);
    }

    /// The cancel token of an admitted job (set it to stop the job at the
    /// next queue barrier).  Also reachable mid-run from inside an
    /// [`EventSink`], which must not call back into the service.
    pub fn cancel_token(&self, job_id: u64) -> Option<CancelToken> {
        self.lock().jobs.get(&job_id).map(|j| j.cancel.clone())
    }

    fn cancel<S: EventSink + Clone>(&self, job_id: u64, sink: &S) {
        let mut st = self.lock();
        let State {
            jobs,
            log,
            next_job_id,
            ..
        } = &mut *st;
        match jobs.get_mut(&job_id) {
            None => {
                let reason = missing_job(job_id, *next_job_id);
                drop(st);
                sink.clone().deliver(&protocol::error(&reason).to_string());
            }
            Some(entry) if entry.finished => {
                drop(st);
                sink.clone().deliver(
                    &protocol::error(&format!("job {job_id} already finished")).to_string(),
                );
            }
            Some(entry) => {
                entry.cancel.cancel();
                // The acknowledgement answers the requester, who need not be
                // the job's client; the job's client learns from `done`.
                let line = protocol::cancelling(job_id).to_string();
                let appended = entry.append(log, &line);
                sink.clone().deliver(&line);
                if let Err(message) = appended {
                    entry.fail(message);
                }
            }
        }
    }

    /// Replays the job's logged events into `sink`, its rows from
    /// `from_row` onwards, then — if the job is still running — attaches
    /// the sink for the rows still to come.  Replay and reattachment happen
    /// under the state lock, so no row is duplicated or missed around the
    /// hand-over point.  A job whose log failed, whose lines cannot be
    /// read back or that is no longer kept is answered with one `error`
    /// event.
    fn resume(&self, job_id: u64, from_row: u64, mut sink: Box<dyn EventSink>) {
        let mut st = self.lock();
        let State {
            jobs,
            log,
            next_job_id,
            ..
        } = &mut *st;
        let Some(entry) = jobs.get_mut(&job_id) else {
            let reason = missing_job(job_id, *next_job_id);
            drop(st);
            sink.deliver(&protocol::error(&reason).to_string());
            return;
        };
        let replay = match &entry.logged {
            Some(lines) => log
                .read(lines)
                .and_then(|lines| replayed(job_id, from_row, lines)),
            None => Err(format!(
                "job {job_id} has no replay log: a write to it failed"
            )),
        };
        let lines = match replay {
            Ok(lines) => lines,
            Err(reason) => {
                drop(st);
                sink.deliver(&protocol::error(&reason).to_string());
                return;
            }
        };
        let alive = lines.iter().all(|line| sink.deliver(line));
        if alive && !entry.finished {
            entry.sink = Some(sink);
        }
    }

    /// Asks the scheduler to exit once the admitted work is finished: sets
    /// `shutdown`, so nothing more is admitted, then closes the run.
    pub fn request_shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        st.admission.close();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// The scheduler: serves every admitted job on one pool run for the
    /// service's whole life, each unit starting on the next free worker,
    /// and returns once shutdown is requested and the admitted work is
    /// finished.
    pub fn run(&self) {
        let admission = self.lock().admission.clone();
        self.serve_units(&admission);
    }

    /// Runs the jobs admitted so far to completion and returns (does not
    /// wait for shutdown) — the scheduler entry point for tests.  Jobs
    /// admitted meanwhile wait for the next call.
    pub fn drain(&self) {
        let admitted = {
            let mut st = self.lock();
            let next = Admission::new();
            if st.shutdown {
                next.close();
            }
            std::mem::replace(&mut st.admission, next)
        };
        admitted.close();
        self.serve_units(&admitted);
    }

    fn serve_units(&self, admission: &Admission<'static, UnitResult>) {
        WorkPool::new(self.cfg.workers)
            .run()
            .served(admission, |job_id, outcome, _| {
                record_outcome(&mut self.lock(), job_id as u64, outcome);
            });
    }
}

/// The reason a request names job `job_id`, which the service does not
/// hold: an issued id belongs to a job dropped after it finished.
fn missing_job(job_id: u64, next_job_id: u64) -> String {
    if (1..next_job_id).contains(&job_id) {
        format!(
            "job {job_id} is no longer kept: the service keeps the last \
             {KEPT_FINISHED_JOBS} finished jobs"
        )
    } else {
        format!("unknown job id {job_id}")
    }
}

/// The lines of job `job_id`, read back from the event log, that a resume
/// from `from_row` replays: all but the rows before `from_row`.  A line
/// that is not an event of the job means the log was replaced under the
/// service.
fn replayed(job_id: u64, from_row: u64, lines: Vec<String>) -> Result<Vec<String>, String> {
    let mut replay = Vec::with_capacity(lines.len());
    for line in lines {
        let event = Json::parse(&line)
            .ok()
            .filter(|e| e.get("job_id").and_then(protocol::as_u64) == Some(job_id))
            .ok_or_else(|| {
                format!(
                    "cannot read job log: a line logged for job {job_id} is not one of its events"
                )
            })?;
        let early_row = event.get("type").and_then(Json::as_str) == Some("row")
            && event
                .get("row")
                .and_then(protocol::as_u64)
                .is_some_and(|row| row < from_row);
        if !early_row {
            replay.push(line);
        }
    }
    Ok(replay)
}

/// Books one unit outcome against its job: emits the unit's rows (log
/// first, then client), and the `done` event when the last unit lands,
/// dropping the job that finished first once more than
/// [`KEPT_FINISHED_JOBS`] have.
fn record_outcome(st: &mut State, job_id: u64, outcome: JobOutcome<UnitResult>) {
    let State {
        jobs,
        finished,
        log,
        ..
    } = st;
    let Some(entry) = jobs.get_mut(&job_id) else {
        return;
    };
    match outcome {
        JobOutcome::Cancelled => entry.units_cancelled += 1,
        JobOutcome::Done(Ok(rows)) => {
            for data in rows {
                entry.emit_row(log, job_id, data);
            }
        }
        JobOutcome::Done(Err(message)) => {
            // First failure wins; retire the job's remaining units.
            entry.error.get_or_insert(message);
            entry.cancel.cancel();
        }
    }
    entry.units_finished += 1;
    if entry.units_finished == entry.units_total {
        let status = if entry.error.is_some() {
            "failed"
        } else if entry.units_cancelled > 0 {
            "cancelled"
        } else {
            "completed"
        };
        let done = protocol::done(job_id, entry.rows, status, entry.error.as_deref());
        entry.emit(log, &done);
        entry.finished = true;
        entry.sink = None;
        finished.push_back(job_id);
        if finished.len() > KEPT_FINISHED_JOBS {
            if let Some(dropped) = finished.pop_front().and_then(|oldest| jobs.remove(&oldest)) {
                log.kept -= dropped.logged_bytes();
            }
        }
        if log.wants_compaction() {
            compact_log(jobs, log);
        }
    }
}

/// Compacts the event log to the lines of the jobs in `jobs`, moving their
/// offsets.  A failure keeps the old log (and the offsets into it).
fn compact_log(jobs: &mut BTreeMap<u64, JobEntry>, log: &mut EventLog) {
    let mut lines: Vec<(u64, usize)> = jobs
        .values()
        .flat_map(|entry| entry.logged.iter().flatten().copied())
        .collect();
    lines.sort_unstable();
    if let Ok(offsets) = log.compact(&lines) {
        for line in jobs
            .values_mut()
            .flat_map(|entry| entry.logged.iter_mut().flatten())
        {
            let copied = lines
                .binary_search(line)
                .expect("every kept line is copied");
            line.0 = offsets[copied];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_in(name: &str) -> EventLog {
        let dir = std::env::temp_dir().join(format!("fec-svc-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        EventLog {
            path: dir.join(EVENT_LOG),
            ..EventLog::default()
        }
    }

    #[test]
    fn compaction_keeps_the_given_lines_in_order() {
        let mut log = log_in("compact");
        let at: Vec<(u64, usize)> = ["a", "bb", "ccc", "dddd"]
            .iter()
            .map(|line| log.append(line).unwrap())
            .collect();
        let kept = [at[1], at[3]];
        assert_eq!(log.compact(&kept).unwrap(), [0, 3]);
        assert_eq!(std::fs::read_to_string(&log.path).unwrap(), "bb\ndddd\n");
        assert_eq!(log.read(&[(0, 3), (3, 5)]).unwrap(), ["bb", "dddd"]);
        // appends continue after the kept lines
        assert_eq!(log.append("e").unwrap(), (8, 2));
        assert_eq!(std::fs::read_to_string(&log.path).unwrap(), "bb\ndddd\ne\n");
    }

    #[test]
    fn a_failed_compaction_keeps_the_log_until_it_grows_by_the_floor() {
        let mut log = log_in("compact-fails");
        let line = "x".repeat(1023);
        while log.end <= COMPACT_LOG_FLOOR {
            log.append(&line).unwrap();
        }
        assert!(log.wants_compaction(), "nothing is kept");
        // a directory where the temporary file goes makes the copy fail
        std::fs::create_dir(log.path.with_extension("ndjson.compacting")).unwrap();
        let before = std::fs::read(&log.path).unwrap();
        assert!(log.compact(&[(0, 1024)]).is_err());
        assert_eq!(std::fs::read(&log.path).unwrap(), before);
        assert!(!log.wants_compaction());
        while log.end <= before.len() as u64 + COMPACT_LOG_FLOOR {
            assert!(!log.wants_compaction());
            log.append(&line).unwrap();
        }
        assert!(log.wants_compaction(), "retried after further growth");
        std::fs::remove_dir(log.path.with_extension("ndjson.compacting")).unwrap();
        assert_eq!(log.compact(&[(0, 1024)]).unwrap(), [0]);
        assert_eq!(log.retry_after, 0, "a success forgets the failure");
    }
}
