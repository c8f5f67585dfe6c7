//! End-to-end tests of the decode service against an in-process transport:
//! protocol round-trips, cancellation determinism, disconnect → replay-log
//! → resume equivalence, priorities and admission control — all without
//! spawning threads (the scheduler runs via [`Service::drain`]).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fec_json::Json;
use fec_sched::CancelToken;
use fec_svc::{EventSink, Service, ServiceConfig, MAX_REQUEST_LINE};

/// A fresh per-test log directory under the target-local temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fec-svc-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(name: &str, workers: usize, max_jobs: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        max_jobs,
        log_dir: test_dir(name),
    })
}

/// Records every delivered line; never disconnects.
#[derive(Clone, Default)]
struct RecordingSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl RecordingSink {
    fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl EventSink for RecordingSink {
    fn deliver(&mut self, line: &str) -> bool {
        self.lines.lock().unwrap().push(line.to_string());
        true
    }
}

/// Records lines and fires a [`CancelToken`] once `after_rows` row events
/// have been delivered.  The token slot is filled after submission via
/// [`Service::cancel_token`]; the sink never calls back into the service
/// (its state lock is held during delivery).
#[derive(Clone)]
struct CancellingSink {
    lines: Arc<Mutex<Vec<String>>>,
    token: Arc<Mutex<Option<CancelToken>>>,
    rows_seen: Arc<Mutex<usize>>,
    after_rows: usize,
}

impl EventSink for CancellingSink {
    fn deliver(&mut self, line: &str) -> bool {
        self.lines.lock().unwrap().push(line.to_string());
        if event_type(line) == "row" {
            let mut rows = self.rows_seen.lock().unwrap();
            *rows += 1;
            if *rows == self.after_rows {
                if let Some(token) = self.token.lock().unwrap().as_ref() {
                    token.cancel();
                }
            }
        }
        true
    }
}

/// Records lines until `fail_on_row` rows have been delivered, then reports
/// the connection dead (the failing line is *not* recorded — the client
/// never saw it).
#[derive(Clone)]
struct DisconnectingSink {
    lines: Arc<Mutex<Vec<String>>>,
    rows_seen: Arc<Mutex<usize>>,
    fail_on_row: usize,
}

impl EventSink for DisconnectingSink {
    fn deliver(&mut self, line: &str) -> bool {
        if event_type(line) == "row" {
            let mut rows = self.rows_seen.lock().unwrap();
            if *rows == self.fail_on_row {
                return false;
            }
            *rows += 1;
        }
        self.lines.lock().unwrap().push(line.to_string());
        true
    }
}

fn event_type(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|e| e.get("type").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// The `(job_id, row, data-rendering)` triples of the row events in `lines`.
fn rows_of(lines: &[String]) -> Vec<(u64, u64, String)> {
    lines
        .iter()
        .filter_map(|line| {
            let event = Json::parse(line).ok()?;
            if event.get("type").and_then(Json::as_str) != Some("row") {
                return None;
            }
            let id = fec_svc::protocol::as_u64(event.get("job_id")?)?;
            let row = fec_svc::protocol::as_u64(event.get("row")?)?;
            Some((id, row, event.get("data")?.to_string()))
        })
        .collect()
}

/// The Eb/N0 of a BER row's `data` rendering.
fn ebn0_of(data: &str) -> f64 {
    Json::parse(data)
        .unwrap()
        .get("point")
        .and_then(|p| p.get("ebn0_db"))
        .and_then(Json::as_f64)
        .unwrap()
}

fn done_status(lines: &[String], job_id: u64) -> Option<String> {
    lines.iter().rev().find_map(|line| {
        let event = Json::parse(line).ok()?;
        if event.get("type").and_then(Json::as_str) != Some("done") {
            return None;
        }
        if fec_svc::protocol::as_u64(event.get("job_id")?) != Some(job_id) {
            return None;
        }
        Some(event.get("status")?.as_str()?.to_string())
    })
}

const SMALL_BER: &str = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3,"snrs":[1.0,2.0]}"#;
const CURVE_BER: &str =
    r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3}"#;

#[test]
fn submit_streams_rows_then_done() {
    let svc = service("roundtrip", 2, 8);
    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    svc.drain();

    let lines = sink.lines();
    let accepted = Json::parse(&lines[0]).unwrap();
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    assert_eq!(
        accepted.get("label").and_then(Json::as_str),
        Some("wimax-ldpc-n576-layered")
    );
    assert_eq!(
        accepted.get("units").and_then(fec_svc::protocol::as_u64),
        Some(2)
    );
    let rows = rows_of(&lines);
    assert_eq!(rows.len(), 2, "one row per Eb/N0 point");
    assert_eq!(
        rows.iter().map(|(_, row, _)| *row).collect::<Vec<_>>(),
        vec![0, 1],
        "row indices count up in delivery order"
    );
    assert_eq!(done_status(&lines, 1).as_deref(), Some("completed"));
}

#[test]
fn bad_requests_get_error_or_rejected_replies() {
    let svc = service("badreq", 1, 8);
    let sink = RecordingSink::default();
    assert!(svc.handle_line("this is not json", &sink));
    assert!(svc.handle_line(r#"{"type":"launch"}"#, &sink));
    assert!(svc.handle_line(
        r#"{"type":"submit","job":"ber","standard":"marsnet"}"#,
        &sink
    ));
    assert!(svc.handle_line(r#"{"type":"cancel","job_id":99}"#, &sink));

    let lines = sink.lines();
    assert_eq!(lines.len(), 4);
    assert_eq!(event_type(&lines[0]), "error");
    assert!(lines[0].contains("malformed request"));
    assert_eq!(event_type(&lines[1]), "error");
    assert!(lines[1].contains("unknown request type"));
    assert_eq!(event_type(&lines[2]), "rejected");
    assert!(lines[2].contains("unknown standard"));
    assert_eq!(event_type(&lines[3]), "error");
    assert!(lines[3].contains("unknown job id 99"));
}

/// A request nested deeper than the JSON parser's limit (but short enough
/// to pass the line cap) is answered with exactly one `error` event instead
/// of overflowing the reader thread's stack.
#[test]
fn deeply_nested_request_gets_one_error_reply() {
    let svc = service("deep", 1, 8);
    let sink = RecordingSink::default();
    let deep = "[".repeat(MAX_REQUEST_LINE - 1);
    assert!(svc.handle_line(&deep, &sink));

    let lines = sink.lines();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(event_type(&lines[0]), "error");
    assert!(lines[0].contains("nest too deeply"), "{}", lines[0]);
}

/// The transport reader caps request lines: an over-long line gets one
/// `error` event, its tail is discarded, and the next line is served.
#[test]
fn serve_answers_an_overlong_line_once_and_keeps_reading() {
    let svc = service("overlong", 1, 8);
    let sink = RecordingSink::default();
    let input = format!(
        "{}\n{}\n{{\"type\":\"cancel\",\"job_id\":7}}",
        "[".repeat(300_000),
        "x".repeat(MAX_REQUEST_LINE)
    );
    svc.serve(std::io::Cursor::new(input), &sink);

    let lines = sink.lines();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines.iter().all(|l| event_type(l) == "error"), "{lines:?}");
    assert!(lines[0].contains("exceeds"), "{}", lines[0]);
    assert!(lines[1].contains("malformed request"), "{}", lines[1]);
    assert!(lines[2].contains("unknown job id 7"), "{}", lines[2]);
}

/// Acceptance: a cancelled job's delivered rows are bit-identical to the
/// same rows of an uncancelled run, at any worker count.  Each Eb/N0 point
/// is an independent unit with RNG keyed on `(seed, shard, ebn0_db)`, so a
/// row's bytes never depend on which other rows ran.
#[test]
fn cancelled_prefix_is_bit_identical_to_the_full_run() {
    let reference_sink = RecordingSink::default();
    let reference = service("cancel-ref", 1, 8);
    assert!(reference.handle_line(CURVE_BER, &reference_sink));
    reference.drain();
    let by_ebn0: BTreeMap<String, String> = rows_of(&reference_sink.lines())
        .into_iter()
        .map(|(_, _, data)| (format!("{}", ebn0_of(&data)), data))
        .collect();
    assert_eq!(by_ebn0.len(), 4, "wimax curve has four points");

    for workers in [1usize, 2, 4] {
        let svc = service(&format!("cancel-w{workers}"), workers, 8);
        let sink = CancellingSink {
            lines: Arc::default(),
            token: Arc::default(),
            rows_seen: Arc::default(),
            after_rows: 2,
        };
        assert!(svc.handle_line(CURVE_BER, &sink));
        *sink.token.lock().unwrap() = svc.cancel_token(1);
        svc.drain();

        let lines = sink.lines.lock().unwrap().clone();
        let rows = rows_of(&lines);
        assert!(rows.len() >= 2, "at least the pre-cancel rows landed");
        for (_, _, data) in &rows {
            let key = format!("{}", ebn0_of(data));
            assert_eq!(
                Some(data),
                by_ebn0.get(&key),
                "workers={workers}: row at {key} dB differs from the full run"
            );
        }
        if workers == 1 {
            assert_eq!(rows.len(), 2, "serial pool cancels at the next unit pop");
            assert_eq!(done_status(&lines, 1).as_deref(), Some("cancelled"));
        }
    }
}

/// Acceptance: kill the client mid-job, let the job finish against the
/// replay log, reconnect with `resume` — the union of what the two clients
/// saw is every row exactly once, byte-identical to an undisturbed run.
#[test]
fn disconnect_then_resume_replays_without_gaps_or_duplicates() {
    let undisturbed_sink = RecordingSink::default();
    let undisturbed = service("resume-ref", 1, 8);
    assert!(undisturbed.handle_line(SMALL_BER, &undisturbed_sink));
    undisturbed.drain();
    let expected = rows_of(&undisturbed_sink.lines());
    assert_eq!(expected.len(), 2);

    let svc = service("resume", 1, 8);
    let first_client = DisconnectingSink {
        lines: Arc::default(),
        rows_seen: Arc::default(),
        fail_on_row: 1,
    };
    assert!(svc.handle_line(SMALL_BER, &first_client));
    svc.drain();
    let seen_before = rows_of(&first_client.lines.lock().unwrap());
    assert_eq!(seen_before.len(), 1, "client died after one row");

    let second_client = RecordingSink::default();
    assert!(svc.handle_line(
        r#"{"type":"resume","job_id":1,"from_row":1}"#,
        &second_client
    ));
    let seen_after = rows_of(&second_client.lines());
    let mut combined = seen_before.clone();
    combined.extend(seen_after);
    assert_eq!(
        combined, expected,
        "first client's rows + resumed rows = the undisturbed run, no gaps, no duplicates"
    );
    assert_eq!(
        done_status(&second_client.lines(), 1).as_deref(),
        Some("completed"),
        "resume replays the terminal done event"
    );

    let full_replay = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &full_replay));
    assert_eq!(
        rows_of(&full_replay.lines()),
        expected,
        "resume from row 0 replays the complete log"
    );
}

/// A client that disconnects before the job even runs can reattach via
/// `resume` and receive the live rows (not just a replay).
#[test]
fn resume_reattaches_a_live_job() {
    let svc = service("reattach", 1, 8);
    let flaky = DisconnectingSink {
        lines: Arc::default(),
        rows_seen: Arc::default(),
        fail_on_row: 0,
    };
    assert!(svc.handle_line(SMALL_BER, &flaky));

    let second_client = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &second_client));
    svc.drain();

    let lines = second_client.lines();
    assert_eq!(event_type(&lines[0]), "accepted", "replayed from the log");
    assert_eq!(rows_of(&lines).len(), 2, "live rows reach the new client");
    assert_eq!(done_status(&lines, 1).as_deref(), Some("completed"));
    assert!(
        rows_of(&flaky.lines.lock().unwrap()).is_empty(),
        "the dead client saw no rows"
    );
}

/// Acceptance: two concurrent jobs on the one shared pool, with priorities
/// honoured — every unit of the high-priority job dispatches before any
/// unit of the earlier-submitted low-priority job.
#[test]
fn high_priority_job_runs_before_a_low_priority_one() {
    let svc = service("priority", 1, 8);
    let sink = RecordingSink::default();
    let low = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3,"snrs":[1.0,2.0],"priority":"low"}"#;
    let high = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3,"snrs":[1.5,2.5],"priority":"high"}"#;
    assert!(svc.handle_line(low, &sink));
    assert!(svc.handle_line(high, &sink));
    svc.drain();

    let order: Vec<u64> = rows_of(&sink.lines())
        .iter()
        .map(|(id, _, _)| *id)
        .collect();
    assert_eq!(
        order,
        vec![2, 2, 1, 1],
        "all high-priority (job 2) rows land before any low-priority (job 1) row"
    );
    assert_eq!(done_status(&sink.lines(), 1).as_deref(), Some("completed"));
    assert_eq!(done_status(&sink.lines(), 2).as_deref(), Some("completed"));
}

#[test]
fn admission_control_caps_active_jobs() {
    let svc = service("admission", 1, 1);
    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    assert!(svc.handle_line(SMALL_BER, &sink));
    let lines = sink.lines();
    assert_eq!(event_type(&lines[0]), "accepted");
    assert_eq!(event_type(&lines[1]), "rejected");
    assert!(lines[1].contains("at capacity: 1 active jobs (max 1)"));

    svc.drain();
    assert!(svc.handle_line(SMALL_BER, &sink), "capacity frees up");
    let lines = sink.lines();
    assert_eq!(event_type(lines.last().unwrap()), "accepted");
}

#[test]
fn shutdown_acknowledges_stops_reading_and_rejects_new_jobs() {
    let svc = service("shutdown", 1, 8);
    let sink = RecordingSink::default();
    assert!(
        !svc.handle_line(r#"{"type":"shutdown"}"#, &sink),
        "shutdown tells the transport to stop reading"
    );
    assert!(svc.is_shutdown());
    assert_eq!(event_type(&sink.lines()[0]), "shutting_down");

    assert!(svc.handle_line(SMALL_BER, &sink));
    let lines = sink.lines();
    assert_eq!(event_type(lines.last().unwrap()), "rejected");
    assert!(lines.last().unwrap().contains("shutting down"));

    // With the queue empty and shutdown requested, the scheduler loop
    // returns immediately instead of blocking on the condvar.
    svc.run();
}

/// A compliance job decomposes per standard and streams one row per
/// compliance entry.
#[test]
fn compliance_job_streams_entries() {
    let svc = service("compliance", 2, 8);
    let sink = RecordingSink::default();
    let submit = r#"{"type":"submit","job":"compliance","standard":"dvbrcs","scope":"corners"}"#;
    assert!(svc.handle_line(submit, &sink));
    svc.drain();

    let lines = sink.lines();
    let accepted = Json::parse(&lines[0]).unwrap();
    assert_eq!(
        accepted.get("label").and_then(Json::as_str),
        Some("compliance-corners-dvbrcs")
    );
    let rows = rows_of(&lines);
    assert!(!rows.is_empty(), "corner entries streamed as rows");
    for (_, _, data) in &rows {
        let entry = Json::parse(data).unwrap();
        assert!(entry.get("throughput_mbps").is_some());
        assert!(entry.get("compliant").is_some());
    }
    assert_eq!(done_status(&lines, 1).as_deref(), Some("completed"));
}

/// The per-job result artifact is valid JSON carrying exactly the streamed
/// rows, and the replay log matches the live stream byte for byte.
#[test]
fn job_artifacts_mirror_the_live_stream() {
    let dir = test_dir("artifact");
    let svc = Service::new(ServiceConfig {
        workers: 1,
        max_jobs: 8,
        log_dir: dir.clone(),
    });
    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    svc.drain();
    let live = rows_of(&sink.lines());

    let log = std::fs::read_to_string(dir.join("job_1.ndjson")).unwrap();
    let logged = rows_of(&log.lines().map(str::to_string).collect::<Vec<_>>());
    assert_eq!(logged, live, "replay log is byte-identical to the stream");

    let artifact = std::fs::read_to_string(dir.join("job_1_result.json")).unwrap();
    let artifact = Json::parse(&artifact).expect("artifact is well-formed JSON");
    assert_eq!(artifact.get("table").and_then(Json::as_str), Some("ber"));
    let rows = artifact.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(
        rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
        live.iter()
            .map(|(_, _, data)| data.clone())
            .collect::<Vec<_>>(),
        "artifact rows are the streamed row payloads"
    );
}
