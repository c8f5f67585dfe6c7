//! `svc_check`: CI verifier for a daemon reply stream.
//!
//! Reads the line-delimited events a `fec_svc` run wrote to stdout and one
//! or more one-shot reference files — `ber_study --json` curves and
//! `wimax_compliance --standard <s> [--full] --json` rows — and checks that
//!
//! * no label appears in two reference files;
//! * every BER job's rows are row-for-row byte-identical to the reference
//!   curve with the job's label (matched per `Eb/N0` point, since daemon
//!   rows stream in completion order), with no duplicated or missing rows;
//! * every compliance job's rows, as a sorted set, are byte-identical to
//!   the reference rows of its scope and standard;
//! * every job finished with `status: "completed"`;
//! * at least one BER and one compliance job were verified;
//! * no `error`/`rejected` events appear in the stream;
//! * with `--log-dir`, the directory's event log (read once) carries each
//!   job's rows exactly as the live stream delivered them, byte for byte,
//!   holds exactly one `accepted` and one `done` event per job, and holds
//!   no job id that the replies lack.  A job that finished before the last
//!   [`KEPT_FINISHED_JOBS`](fec_svc::KEPT_FINISHED_JOBS) is no longer kept,
//!   and compaction may have removed it: it may be absent from the log
//!   entirely, never in part.
//!
//! Usage: `svc_check <replies.ndjson> <reference.json>... [--log-dir <dir>]`
//!
//! Exits 1 with a description on the first mismatch, and 2 on a bad
//! command line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use code_tables::Standard;
use fec_json::Json;
use fec_svc::protocol::as_u64;

struct JobCheck {
    kind: String,
    label: String,
    rows: Vec<(u64, Json)>,
    done_status: Option<String>,
    done_rows: u64,
    /// How many jobs of the stream finished before this one.
    finished_after: usize,
}

fn fail(message: &str) -> ! {
    eprintln!("svc_check: {message}");
    exit(1);
}

const USAGE: &str = "usage: svc_check <replies.ndjson> <reference.json>... [--log-dir <dir>]";

fn main() {
    let mut paths = Vec::new();
    let mut log_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--log-dir" {
            let Some(dir) = args.next() else {
                eprintln!("svc_check: --log-dir requires a directory\n{USAGE}");
                exit(2);
            };
            log_dir = Some(PathBuf::from(dir));
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    if paths.len() < 2 {
        eprintln!("svc_check: needs a reply stream and at least one reference file\n{USAGE}");
        exit(2);
    }
    let reference_paths = paths.split_off(1);
    let replies_path = &paths[0];

    let replies = read(replies_path);
    let jobs = collect_jobs(&replies);
    if jobs.is_empty() {
        fail("reply stream accepted no jobs");
    }

    let mut curves = BTreeMap::new();
    let mut compliance = BTreeMap::new();
    for path in &reference_paths {
        let reference = Json::parse(&read(path))
            .unwrap_or_else(|e| fail(&format!("parse {}: {e}", path.display())));
        let duplicate = |label: &str| -> ! {
            fail(&format!(
                "label {label:?} appears in two reference files (again in {})",
                path.display()
            ))
        };
        if reference.get("table").and_then(Json::as_str) == Some("compliance") {
            let (label, rows) = compliance_rows(&reference);
            if compliance.insert(label.clone(), rows).is_some() {
                duplicate(&label);
            }
            continue;
        }
        for (label, points) in curves_by_label(&reference) {
            if curves.insert(label.clone(), points).is_some() {
                duplicate(&label);
            }
        }
    }

    let mut ber_rows = 0usize;
    let mut compliance_done = 0usize;
    for (job_id, job) in &jobs {
        let status = job
            .done_status
            .as_deref()
            .unwrap_or_else(|| fail(&format!("job {job_id} has no done event")));
        if status != "completed" {
            fail(&format!("job {job_id} finished with status {status:?}"));
        }
        if job.done_rows != job.rows.len() as u64 {
            fail(&format!(
                "job {job_id} done event claims {} rows, stream delivered {}",
                job.done_rows,
                job.rows.len()
            ));
        }
        check_row_indices(*job_id, job);
        match job.kind.as_str() {
            "ber" => ber_rows += check_ber_job(*job_id, job, &curves),
            "compliance" => {
                check_compliance_job(*job_id, job, &compliance);
                compliance_done += 1;
            }
            other => fail(&format!("job {job_id} has unknown kind {other:?}")),
        }
    }
    if ber_rows == 0 {
        fail("no BER rows were verified");
    }
    if compliance_done == 0 {
        fail("no compliance job completed");
    }
    if let Some(dir) = log_dir {
        check_event_log(&dir.join(fec_svc::EVENT_LOG), &jobs);
    }
    println!(
        "svc_check: {} jobs verified ({ber_rows} BER rows byte-identical to {} \
         reference curves, {compliance_done} compliance jobs matching {} \
         reference row sets)",
        jobs.len(),
        curves.len(),
        compliance.len()
    );
}

fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())))
}

/// Groups the reply stream's events per job, failing on any error events.
fn collect_jobs(replies: &str) -> BTreeMap<u64, JobCheck> {
    let mut jobs = BTreeMap::new();
    let mut finished = 0;
    for line in replies.lines().filter(|l| !l.trim().is_empty()) {
        let event =
            Json::parse(line).unwrap_or_else(|e| fail(&format!("unparsable reply {line:?}: {e}")));
        let ty = event
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("reply without type: {line}")));
        let job_id = || {
            event
                .get("job_id")
                .and_then(as_u64)
                .unwrap_or_else(|| fail(&format!("reply without job_id: {line}")))
        };
        match ty {
            "accepted" => {
                let kind = event.get("job").and_then(Json::as_str).unwrap_or("?");
                let label = event.get("label").and_then(Json::as_str).unwrap_or("?");
                jobs.insert(
                    job_id(),
                    JobCheck {
                        kind: kind.to_string(),
                        label: label.to_string(),
                        rows: Vec::new(),
                        done_status: None,
                        done_rows: 0,
                        finished_after: 0,
                    },
                );
            }
            "row" => {
                let id = job_id();
                let row = event
                    .get("row")
                    .and_then(as_u64)
                    .unwrap_or_else(|| fail(&format!("row event without index: {line}")));
                let data = event
                    .get("data")
                    .unwrap_or_else(|| fail(&format!("row event without data: {line}")));
                jobs.get_mut(&id)
                    .unwrap_or_else(|| fail(&format!("row for unknown job {id}")))
                    .rows
                    .push((row, data.clone()));
            }
            "done" => {
                let id = job_id();
                let status = event
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail(&format!("done event without status: {line}")));
                let rows = event.get("rows").and_then(as_u64).unwrap_or(0);
                let job = jobs
                    .get_mut(&id)
                    .unwrap_or_else(|| fail(&format!("done for unknown job {id}")));
                job.done_status = Some(status.to_string());
                job.done_rows = rows;
                job.finished_after = finished;
                finished += 1;
            }
            "rejected" | "error" => fail(&format!("stream carries a failure event: {line}")),
            "shutting_down" | "cancelling" => {}
            other => fail(&format!("unknown event type {other:?}: {line}")),
        }
    }
    jobs
}

/// Row indices must be exactly 0..n in delivery order.
fn check_row_indices(job_id: u64, job: &JobCheck) {
    for (expected, (row, _)) in job.rows.iter().enumerate() {
        if *row != expected as u64 {
            fail(&format!(
                "job {job_id} row indices out of order: got {row} at position {expected}"
            ));
        }
    }
}

/// The reference curves of a `ber_study --json` file, keyed by label.
fn curves_by_label(reference: &Json) -> BTreeMap<String, Vec<Json>> {
    let mut curves = BTreeMap::new();
    let list = reference
        .get("curves")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("reference file has no curves array"));
    for curve in list {
        let label = curve
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("reference curve without label"));
        let points = curve
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or_else(|| fail("reference curve without points"));
        curves.insert(label.to_string(), points.to_vec());
    }
    curves
}

/// The job label a `wimax_compliance --json` file answers
/// (`compliance-<scope>-<standard flag>`, as the daemon labels the same
/// request) and its rows, rendered and sorted.
fn compliance_rows(reference: &Json) -> (String, Vec<String>) {
    let meta = |key: &str| {
        reference
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("compliance reference without {key:?}")))
    };
    let scope = meta("scope");
    let standard = match meta("standard") {
        "all" => "all".to_string(),
        name => Standard::all()
            .into_iter()
            .find(|s| s.name() == name)
            .unwrap_or_else(|| {
                fail(&format!(
                    "compliance reference for unknown standard {name:?}"
                ))
            })
            .flag()
            .to_string(),
    };
    let mut rows: Vec<String> = reference
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("compliance reference has no rows array"))
        .iter()
        .map(Json::to_string)
        .collect();
    rows.sort();
    (format!("compliance-{scope}-{standard}"), rows)
}

/// Verifies one compliance job: its rows, as a sorted set, must be the
/// reference rows of its label byte for byte.
fn check_compliance_job(job_id: u64, job: &JobCheck, references: &BTreeMap<String, Vec<String>>) {
    let want = references.get(&job.label).unwrap_or_else(|| {
        fail(&format!(
            "no compliance reference for {:?} (job {job_id})",
            job.label
        ))
    });
    let mut got: Vec<String> = job.rows.iter().map(|(_, data)| data.to_string()).collect();
    got.sort();
    if &got != want {
        let missing = want.iter().find(|row| !got.contains(row));
        let extra = got.iter().find(|row| !want.contains(row));
        fail(&format!(
            "compliance job {job_id} ({}) rows differ from the one-shot run \
             ({} rows vs {}):\n\
             missing: {missing:?}\n\
             extra  : {extra:?}",
            job.label,
            got.len(),
            want.len()
        ));
    }
}

/// Verifies one BER job against its reference curve; returns the number of
/// verified rows.
fn check_ber_job(job_id: u64, job: &JobCheck, curves: &BTreeMap<String, Vec<Json>>) -> usize {
    let points = curves.get(&job.label).unwrap_or_else(|| {
        fail(&format!(
            "reference has no curve labelled {:?} (job {job_id})",
            job.label
        ))
    });
    if job.rows.len() != points.len() {
        fail(&format!(
            "job {job_id} delivered {} rows, reference curve {:?} has {} points",
            job.rows.len(),
            job.label,
            points.len()
        ));
    }
    let mut used = vec![false; points.len()];
    for (row, data) in &job.rows {
        let label = data.get("label").and_then(Json::as_str).unwrap_or("?");
        if label != job.label {
            fail(&format!(
                "job {job_id} row {row} carries label {label:?}, expected {:?}",
                job.label
            ));
        }
        let point = data
            .get("point")
            .unwrap_or_else(|| fail(&format!("job {job_id} row {row} has no point")));
        let ebn0 = point
            .get("ebn0_db")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(&format!("job {job_id} row {row} has no ebn0_db")));
        // Daemon rows stream in completion order; match the reference point
        // by Eb/N0 and compare the full row byte-for-byte.
        let index = points
            .iter()
            .position(|p| p.get("ebn0_db").and_then(Json::as_f64) == Some(ebn0))
            .unwrap_or_else(|| {
                fail(&format!(
                    "job {job_id} row {row}: no reference point at {ebn0} dB"
                ))
            });
        if used[index] {
            fail(&format!("job {job_id} delivered the {ebn0} dB point twice"));
        }
        used[index] = true;
        let got = point.to_string();
        let want = points[index].to_string();
        if got != want {
            fail(&format!(
                "job {job_id} row {row} differs from the one-shot run at {ebn0} dB:\n\
                 daemon   : {got}\n\
                 reference: {want}"
            ));
        }
    }
    job.rows.len()
}

/// What the event log holds of one job: its `accepted` events, its `done`
/// events and its `(row, data)` rows.
type LoggedJob = (usize, usize, Vec<(u64, String)>);

/// The event log must carry exactly the rows the live stream delivered,
/// one `accepted` and one `done` event per job, and no job the replies
/// lack; a job the service no longer keeps may be absent as a whole.
fn check_event_log(path: &std::path::Path, jobs: &BTreeMap<u64, JobCheck>) {
    let dropped_before = jobs.len().saturating_sub(fec_svc::KEPT_FINISHED_JOBS);
    let mut logged: BTreeMap<u64, LoggedJob> =
        jobs.keys().map(|&id| (id, Default::default())).collect();
    for line in read(path).lines() {
        let event = Json::parse(line).ok();
        let field = |key: &str| event.as_ref().and_then(|e| e.get(key));
        let id = field("job_id").and_then(as_u64);
        let Some((accepted, done, rows)) = id.and_then(|id| logged.get_mut(&id)) else {
            fail(&format!(
                "event log {} holds a line of no job in the replies: {line}",
                path.display()
            ));
        };
        match field("type").and_then(Json::as_str) {
            Some("accepted") => *accepted += 1,
            Some("done") => *done += 1,
            Some("row") => rows.push((
                field("row").and_then(as_u64).unwrap_or(u64::MAX),
                field("data").map(Json::to_string).unwrap_or_default(),
            )),
            _ => {}
        }
    }
    for (job_id, (accepted, done, rows)) in logged {
        let compacted = (accepted, done) == (0, 0) && rows.is_empty();
        if compacted && jobs[&job_id].finished_after < dropped_before {
            continue;
        }
        if (accepted, done) != (1, 1) {
            fail(&format!(
                "event log {} holds {accepted} accepted and {done} done events of job \
                 {job_id}, not one each",
                path.display()
            ));
        }
        let streamed: Vec<(u64, String)> = jobs[&job_id]
            .rows
            .iter()
            .map(|(row, data)| (*row, data.to_string()))
            .collect();
        if rows != streamed {
            fail(&format!(
                "job {job_id}'s rows in {} do not match the live stream \
                 ({} logged rows vs {} streamed)",
                path.display(),
                rows.len(),
                streamed.len()
            ));
        }
    }
}
