//! End-to-end tests of the decode service against an in-process transport:
//! protocol round-trips, cancellation determinism, disconnect → replay-log
//! → resume equivalence, priorities and admission control.  Most run the
//! scheduler via [`Service::drain`] on the test thread; the scheduling test
//! runs [`Service::run`] on a thread of its own.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use fec_json::Json;
use fec_sched::CancelToken;
use fec_svc::{EventSink, Service, ServiceConfig, EVENT_LOG, KEPT_FINISHED_JOBS, MAX_REQUEST_LINE};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The per-test log directory under the temp dir.
fn log_dir_of(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fec-svc-test-{}-{name}", std::process::id()))
}

/// A fresh (removed) per-test log directory.
fn test_dir(name: &str) -> PathBuf {
    let dir = log_dir_of(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(name: &str, workers: usize, max_jobs: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        max_jobs,
        log_dir: test_dir(name),
    })
    .expect("the test log directory is creatable")
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

/// An Eb/N0 whose linear ratio overflows (+3100 dB) or underflows to zero
/// (-3300 dB) gives the AWGN channel no finite noise variance; such a job is
/// rejected up front, naming the value, instead of panicking a pool worker
/// or reporting a meaningless curve.
#[test]
fn snrs_without_a_finite_noise_variance_are_rejected() {
    let svc = service("extreme_snrs", 1, 8);
    let sink = RecordingSink::default();
    for (standard, snr) in [("dvbrcs", "3100"), ("lte", "3100"), ("dvbrcs", "-3300")] {
        let line = format!(
            r#"{{"type":"submit","job":"ber","standard":"{standard}","frames":2,"snrs":[{snr}]}}"#
        );
        assert!(svc.handle_line(&line, &sink));
    }
    let lines = sink.lines();
    assert_eq!(lines.len(), 3);
    for (line, value) in lines.iter().zip(["3100.0", "3100.0", "-3300.0"]) {
        assert_eq!(event_type(line), "rejected", "{line}");
        assert!(
            line.contains(&format!("value {value} dB has no finite noise variance")),
            "{line}"
        );
    }
    svc.drain();
    assert_eq!(sink.lines().len(), 3, "no job was admitted");
}

/// At 3070 and 3080 dB — accepted values, just below the range where the
/// noise variance stops being finite — the channel LLRs reach ~1e308.  The
/// turbo decoders clamp them to the certain-LLR magnitude, so both turbo
/// standards decode every frame instead of overflowing their state metrics
/// (a DVB-RCS unit used to panic, LTE used to report FER 1).
#[test]
fn turbo_jobs_decode_error_free_at_extreme_snrs() {
    let svc = service("extreme_turbo", 2, 8);
    let sink = RecordingSink::default();
    for standard in ["lte", "dvbrcs"] {
        let line = format!(
            r#"{{"type":"submit","job":"ber","standard":"{standard}","frames":2,"snrs":[3070,3080]}}"#
        );
        assert!(svc.handle_line(&line, &sink));
    }
    svc.drain();
    let lines = sink.lines();
    for job_id in [1, 2] {
        assert_eq!(
            done_status(&lines, job_id).as_deref(),
            Some("completed"),
            "job {job_id}: {lines:?}"
        );
    }
    let rows = rows_of(&lines);
    assert_eq!(rows.len(), 4, "{lines:?}");
    for (job_id, _, data) in &rows {
        let point = Json::parse(data).unwrap();
        let fer = point
            .get("point")
            .and_then(|p| p.get("fer"))
            .and_then(Json::as_f64);
        assert_eq!(
            fer,
            Some(0.0),
            "job {job_id} at {} dB: {data}",
            ebn0_of(data)
        );
    }
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

/// The service keeps the last `KEPT_FINISHED_JOBS` finished jobs: after
/// one more, the first is dropped, and a `resume` or `cancel` of it gets
/// one `error` that differs from the one for an id never issued, while the
/// last job still replays exactly its lines.
#[test]
fn finished_jobs_past_the_bound_are_dropped_oldest_first() {
    let svc = service("kept", 1, 1);
    let tiny = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":1,"snrs":[6.0]}"#;
    let mut last = RecordingSink::default();
    for _ in 0..=KEPT_FINISHED_JOBS {
        last = RecordingSink::default();
        assert!(svc.handle_line(tiny, &last));
        svc.drain();
        assert_eq!(
            event_type(&last.lines()[0]),
            "accepted",
            "a kept finished job is not an active one"
        );
    }
    let last_id = KEPT_FINISHED_JOBS as u64 + 1;
    assert_eq!(
        done_status(&last.lines(), last_id).as_deref(),
        Some("completed")
    );

    let reply = |request: &str| {
        let sink = RecordingSink::default();
        assert!(svc.handle_line(request, &sink));
        sink.lines()
    };
    let dropped = reply(r#"{"type":"resume","job_id":1}"#);
    assert_eq!(dropped.len(), 1, "{dropped:?}");
    assert_eq!(event_type(&dropped[0]), "error");
    assert!(
        dropped[0].contains("job 1 is no longer kept"),
        "{dropped:?}"
    );
    assert_eq!(reply(r#"{"type":"cancel","job_id":1}"#), dropped);
    let never = reply(&format!(r#"{{"type":"resume","job_id":{}}}"#, last_id + 1));
    assert_eq!(event_type(&never[0]), "error");
    assert!(never[0].contains("unknown job id"), "{never:?}");
    assert_eq!(
        reply(&format!(r#"{{"type":"resume","job_id":{last_id}}}"#)),
        last.lines(),
        "the last job replays exactly its lines"
    );
    assert_eq!(
        event_type(&reply(r#"{"type":"resume","job_id":2}"#)[0]),
        "accepted"
    );
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

/// Forwards every delivered line to a channel, so a test can wait for
/// events while the scheduler runs on another thread.
#[derive(Clone)]
struct ChannelSink(mpsc::Sender<String>);

impl EventSink for ChannelSink {
    fn deliver(&mut self, line: &str) -> bool {
        self.0.send(line.to_string()).is_ok()
    }
}

/// Whether `line` is the event `ty` of job `job_id`.
fn is_event(line: &str, ty: &str, job_id: u64) -> bool {
    Json::parse(line).is_ok_and(|event| {
        event.get("type").and_then(Json::as_str) == Some(ty)
            && event.get("job_id").and_then(fec_svc::protocol::as_u64) == Some(job_id)
    })
}

/// Acceptance: a job admitted while a long unit runs starts on the idle
/// worker at once.  Job 1 is one slow compliance unit and job 2 a fast BER
/// unit; once job 2 is done, job 3 (fast) is submitted, and it must finish
/// before job 1's unit ends — job 1's first row arrives only then.  The
/// slow unit is the full 802.16e compliance sweep from an empty store (114
/// LDPC codes to map, and every code's NoC phase), dozens of times as long
/// as the two one-frame BER jobs and the test thread's round trip.
#[test]
fn a_job_admitted_while_a_long_unit_runs_starts_on_an_idle_worker() {
    let svc = service("idle-worker", 2, 8);
    let (tx, rx) = mpsc::channel();
    let sink = ChannelSink(tx);
    let slow = r#"{"type":"submit","job":"compliance","standard":"wimax","scope":"full"}"#;
    let fast = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":1,"snrs":[3.0]}"#;
    let mut lines: Vec<String> = Vec::new();
    // fec-lint: allow(no-thread-spawn, the test runs the daemon's scheduler on its own thread, as the socket transport does; decode work stays on the WorkPool)
    std::thread::scope(|scope| {
        // fec-lint: allow(no-thread-spawn, scheduler thread of the test transport)
        scope.spawn(|| svc.run());
        // Nothing here may panic before the shutdown request: the scope
        // joins the scheduler thread, which returns only after it.
        svc.handle_line(slow, &sink);
        svc.handle_line(fast, &sink);
        let mut wait_until = |events: &[(&str, u64)]| {
            while !events
                .iter()
                .all(|&(ty, id)| lines.iter().any(|line| is_event(line, ty, id)))
            {
                match rx.recv_timeout(Duration::from_secs(60)) {
                    Ok(line) => lines.push(line),
                    Err(_) => return false,
                }
            }
            true
        };
        if wait_until(&[("done", 2)]) {
            svc.handle_line(fast, &sink);
            wait_until(&[("done", 1), ("done", 3)]);
        }
        svc.request_shutdown();
    });
    let position = |ty: &str, job_id: u64| {
        lines
            .iter()
            .position(|line| is_event(line, ty, job_id))
            .unwrap_or_else(|| panic!("no {ty} event of job {job_id}: {lines:?}"))
    };
    assert!(
        position("done", 3) < position("row", 1),
        "the fast job waited for the slow unit: {lines:?}"
    );
    for job_id in [1, 2, 3] {
        assert_eq!(done_status(&lines, job_id).as_deref(), Some("completed"));
    }
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

/// Compliance units share the service's mapping store.  The five corner
/// jobs, WiMAX and 802.22 first so that both start at once and race on the
/// n2304 r1/2 code they share, run twice on 2 workers: every job streams
/// the one-shot rows of its standard, and the store holds one entry per
/// distinct LDPC code.  A third pass maps nothing new.
#[test]
fn repeated_compliance_jobs_reuse_the_services_mappings() {
    use fec_json::ToJson;
    use noc_decoder::{run_multi_compliance_sharded, ComplianceScope, DecoderConfig, Standard};
    let flags = ["wimax", "80222", "80211n", "lte", "dvbrcs"];
    let one_shot: BTreeMap<&str, Vec<String>> = flags
        .iter()
        .map(|&flag| {
            let standard: Standard = flag.parse().unwrap();
            let mut rows = Vec::new();
            run_multi_compliance_sharded(
                &DecoderConfig::paper_design_point(),
                &[ComplianceScope::corners(standard)],
                2,
                |_, entry| rows.push(entry.to_json().to_string()),
            )
            .unwrap();
            rows.sort();
            (flag, rows)
        })
        .collect();

    let svc = service("mapping-reuse", 2, 16);
    let sink = RecordingSink::default();
    let mut submitted = Vec::new();
    let mut pass = |passes: usize| {
        for _ in 0..passes {
            for flag in flags {
                let submit = format!(
                    r#"{{"type":"submit","job":"compliance","standard":"{flag}","scope":"corners"}}"#
                );
                assert!(svc.handle_line(&submit, &sink));
                submitted.push(flag);
            }
        }
        svc.drain();
    };
    pass(2);
    // 12 LDPC corner codes at P = 22, one of them in two standards
    assert_eq!(svc.mappings().len(), 11);
    pass(1);
    assert_eq!(svc.mappings().len(), 11);

    let lines = sink.lines();
    let mut rows: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (job_id, _, data) in rows_of(&lines) {
        rows.entry(job_id).or_default().push(data);
    }
    for (index, flag) in submitted.into_iter().enumerate() {
        let job_id = index as u64 + 1;
        assert_eq!(done_status(&lines, job_id).as_deref(), Some("completed"));
        let mut job_rows = rows.remove(&job_id).unwrap_or_default();
        job_rows.sort();
        assert_eq!(job_rows, one_shot[flag], "job {job_id} ({flag})");
    }
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The first admission creates the event log, the only file in the log
/// directory; the log holds the job's events byte for byte as the client
/// received them, and a resume from row 0 returns the same events.
#[test]
fn job_artifacts_mirror_the_live_stream() {
    let dir = test_dir("artifact");
    let svc = Service::new(ServiceConfig {
        workers: 1,
        max_jobs: 8,
        log_dir: dir.clone(),
    })
    .expect("the test log directory is creatable");
    assert!(files_in(&dir).is_empty(), "start-up creates no file");
    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    svc.drain();
    let live = sink.lines();
    assert_eq!(rows_of(&live).len(), 2, "{live:?}");

    assert_eq!(files_in(&dir), [EVENT_LOG]);
    let log = std::fs::read_to_string(dir.join(EVENT_LOG)).unwrap();
    assert_eq!(
        log.lines().collect::<Vec<_>>(),
        live,
        "the event log is byte-identical to the stream"
    );

    let replay = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &replay));
    assert_eq!(replay.lines(), live, "resume from row 0 replays the stream");
}

/// The `job_id` and, for a row event, the `row` index of an event line.
fn job_and_row(line: &str) -> (u64, Option<u64>) {
    let event = Json::parse(line).unwrap();
    let field = |key: &str| event.get(key).and_then(fec_svc::protocol::as_u64);
    (field("job_id").unwrap(), field("row"))
}

/// Two jobs whose events interleave in the shared log each resume to
/// exactly their own events, from any row.  On one worker the
/// high-priority job 2 runs between job 1's `accepted` and its rows.
#[test]
fn interleaved_jobs_resume_to_exactly_their_own_events() {
    let svc = service("interleaved", 1, 8);
    let sink = RecordingSink::default();
    let low = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3,"snrs":[1.0,2.0],"priority":"low"}"#;
    let high = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":3,"snrs":[1.5,2.5],"priority":"high"}"#;
    assert!(svc.handle_line(low, &sink));
    assert!(svc.handle_line(high, &sink));
    svc.drain();
    let live = sink.lines();

    let log = std::fs::read_to_string(log_dir_of("interleaved").join(EVENT_LOG)).unwrap();
    let logged_ids: Vec<u64> = log.lines().map(|line| job_and_row(line).0).collect();
    assert_eq!(logged_ids, [1, 2, 2, 2, 2, 1, 1, 1], "{log}");

    for job_id in [1, 2] {
        for from_row in 0..=3 {
            let replay = RecordingSink::default();
            let resume = format!(r#"{{"type":"resume","job_id":{job_id},"from_row":{from_row}}}"#);
            assert!(svc.handle_line(&resume, &replay));
            let expected: Vec<String> = live
                .iter()
                .filter(|line| {
                    let (id, row) = job_and_row(line);
                    id == job_id && row.is_none_or(|row| row >= from_row)
                })
                .cloned()
                .collect();
            assert_eq!(replay.lines(), expected, "job {job_id} from row {from_row}");
        }
    }
}

/// The events of one type in `lines`.
fn events_of<'a>(lines: &'a [String], ty: &str) -> Vec<&'a String> {
    lines.iter().filter(|l| event_type(l) == ty).collect()
}

/// A log directory that cannot be created (its parent is a regular file)
/// makes startup fail with a message naming it, in the library and in the
/// daemon binary, which exits non-zero instead of panicking.
#[test]
fn log_dir_under_a_regular_file_fails_startup_with_a_message() {
    let dir = test_dir("startup");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "a regular file").unwrap();
    let log_dir = blocker.join("logs");

    let err = Service::new(ServiceConfig {
        workers: 1,
        max_jobs: 8,
        log_dir: log_dir.clone(),
    })
    .unwrap_err();
    assert!(err.contains("log directory"), "{err}");
    assert!(err.contains(&log_dir.display().to_string()), "{err}");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fec_svc"))
        .arg("--stdio")
        .arg("--log-dir")
        .arg(&log_dir)
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("log directory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A bad flag or flag value ends the daemon binary with exit status 2, a
/// message naming the flag and the usage line, never a panic.
#[test]
fn bad_flags_exit_with_a_usage_line_not_a_panic() {
    let cases: [(&[&str], &str); 4] = [
        (&["--workers", "abc"], "--workers"),
        (&["--max-jobs", "0"], "--max-jobs"),
        (&["--bogus"], "--bogus"),
        (&["--socket"], "--socket"),
    ];
    for (args, flag) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fec_svc"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fec_svc"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// An event log whose writes fail (a symlink to `/dev/full`, which answers
/// every write with ENOSPC even for root) ends the job that wrote with one
/// `error` event and `done {status: "failed"}`; the daemon keeps serving,
/// a resume of the failed job is answered with an `error`, and once the
/// symlink is gone the next job reopens the log and runs.
#[cfg(unix)]
#[test]
fn failed_log_write_ends_the_job_not_the_daemon() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let svc = service("devfull", 1, 8);
    let log = log_dir_of("devfull").join(EVENT_LOG);
    std::os::unix::fs::symlink("/dev/full", &log).unwrap();

    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    svc.drain();
    let lines = sink.lines();
    assert_eq!(event_type(&lines[0]), "accepted", "{lines:?}");
    let errors = events_of(&lines, "error");
    assert_eq!(errors.len(), 1, "{lines:?}");
    assert!(errors[0].contains("job log"), "{}", errors[0]);
    assert!(rows_of(&lines).is_empty(), "{lines:?}");
    assert_eq!(done_status(&lines, 1).as_deref(), Some("failed"));
    assert_eq!(event_type(lines.last().unwrap()), "done", "{lines:?}");

    let resume = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &resume));
    let replies = resume.lines();
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(event_type(&replies[0]), "error");

    std::fs::remove_file(&log).unwrap();
    let next = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &next));
    svc.drain();
    assert_eq!(rows_of(&next.lines()).len(), 2);
    assert_eq!(done_status(&next.lines(), 2).as_deref(), Some("completed"));
    let replay = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":2}"#, &replay));
    assert_eq!(replay.lines(), next.lines(), "the reopened log replays");
}

/// An event log that cannot be created (a directory sits at its path)
/// rejects the submit with a reason, without spending a job id; once the
/// path is free, the next admission creates the log and its job runs.
#[test]
fn uncreatable_job_log_rejects_the_submit() {
    let svc = service("nolog", 1, 8);
    let log = log_dir_of("nolog").join(EVENT_LOG);
    std::fs::create_dir(&log).unwrap();

    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    let lines = sink.lines();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(event_type(&lines[0]), "rejected");
    assert!(lines[0].contains("cannot create job log"), "{}", lines[0]);

    std::fs::remove_dir(&log).unwrap();
    let next = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &next));
    svc.drain();
    assert_eq!(done_status(&next.lines(), 1).as_deref(), Some("completed"));
}

/// An event log that can no longer be read answers `resume` with one
/// `error` event: first a log whose bytes now hold another job's events,
/// then a directory in its place.
#[test]
fn unreadable_replay_log_answers_resume_with_an_error() {
    let svc = service("unreadable", 1, 8);
    let sink = RecordingSink::default();
    assert!(svc.handle_line(SMALL_BER, &sink));
    svc.drain();
    assert_eq!(done_status(&sink.lines(), 1).as_deref(), Some("completed"));

    let log = log_dir_of("unreadable").join(EVENT_LOG);
    let foreign = std::fs::read_to_string(&log)
        .unwrap()
        .replace(r#""job_id":1,"#, r#""job_id":7,"#);
    std::fs::write(&log, foreign).unwrap();
    let resume = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &resume));
    let replies = resume.lines();
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(event_type(&replies[0]), "error");
    assert!(replies[0].contains("cannot read job log"), "{}", replies[0]);

    std::fs::remove_file(&log).unwrap();
    std::fs::create_dir(&log).unwrap();
    let resume = RecordingSink::default();
    assert!(svc.handle_line(r#"{"type":"resume","job_id":1}"#, &resume));
    let replies = resume.lines();
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(event_type(&replies[0]), "error");
    assert!(replies[0].contains("cannot read job log"), "{}", replies[0]);
}

/// A socket path that cannot be bound (its directory is missing) ends the
/// daemon binary with exit status 1 and a message naming the path, never
/// a panic.
#[cfg(unix)]
#[test]
fn unbindable_socket_exits_with_a_message_not_a_panic() {
    let dir = test_dir("nosocket");
    let socket = dir.join("missing").join("s.sock");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fec_svc"))
        .arg("--socket")
        .arg(&socket)
        .arg("--log-dir")
        .arg(dir.join("logs"))
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&socket.display().to_string()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Valid request lines of every kind, the starting points of the fuzz test.
const REQUEST_CORPUS: &[&str] = &[
    SMALL_BER,
    r#"{"type":"submit","job":"compliance","standard":"wimax","scope":"corners","priority":"high"}"#,
    r#"{"type":"submit","job":"ber","standard":"lte","codec":"turbo","frames":2,"snrs":[0.5]}"#,
    r#"{"type":"submit","job":"ber","standard":"wimax","codec":"quantized","lambda_bits":7,"batch_frames":8,"adaptive":{"target_rel_width":0.2,"confidence":0.95}}"#,
    r#"{"type":"submit","job":"ber","standard":"80211n","block":648,"frames":1,"priority":"low"}"#,
    r#"{"type":"cancel","job_id":1}"#,
    r#"{"type":"resume","job_id":2,"from_row":0}"#,
    r#"{"type":"shutdown"}"#,
];

/// Fragments spliced into mutated lines: JSON syntax, extreme numbers,
/// escapes and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "\\u0000",
    "\\ud800",
    "null",
    "true",
    "-1",
    "0",
    "1e999",
    "-0.0",
    "18446744073709551616",
    "9223372036854775807",
    "\"job_id\":",
    "\"type\":\"submit\"",
    "\"frames\":",
    "\"block\":",
    "\"snrs\":[",
    "é",
    "\u{1F600}",
    "\t",
];

/// One mutated request line: a corpus line with a few random byte-range
/// deletions, fragment insertions and duplications (always on character
/// boundaries), or a line of random fragments.
fn mutated_line(rng: &mut rand::rngs::StdRng) -> String {
    if rng.gen_range(0..8) == 0 {
        return (0..rng.gen_range(0..12))
            .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
            .collect();
    }
    let mut line = REQUEST_CORPUS[rng.gen_range(0..REQUEST_CORPUS.len())].to_string();
    for _ in 0..rng.gen_range(0..4) {
        let bounds: Vec<usize> = line
            .char_indices()
            .map(|(i, _)| i)
            .chain([line.len()])
            .collect();
        let a = bounds[rng.gen_range(0..bounds.len())];
        let b = bounds[rng.gen_range(0..bounds.len())];
        let (a, b) = (a.min(b), a.max(b));
        match rng.gen_range(0..3) {
            0 => line.replace_range(a..b, ""),
            1 => line.insert_str(a, FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]),
            _ => {
                let copy = line[a..b].to_string();
                line.insert_str(b, &copy);
            }
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// `handle_line` never panics, and every non-blank line gets exactly one
    /// direct reply — except a `resume` of a known job, whose reply is the
    /// replay of that job's log, `accepted` first.  The scheduler never
    /// runs, so admitted jobs stay queued and the admission limit is hit.
    #[test]
    fn handle_line_replies_once_to_any_line(seed in 0u64..u64::MAX) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let svc = service("fuzz", 1, 3);
        for _ in 0..12 {
            let line = mutated_line(&mut rng);
            let sink = RecordingSink::default();
            svc.handle_line(&line, &sink);
            let replies = sink.lines();
            let resumed = replies.first().is_some_and(|r| event_type(r) == "accepted")
                && fec_svc::protocol::parse_request(line.trim())
                    .is_ok_and(|r| matches!(r, fec_svc::protocol::Request::Resume { .. }));
            if line.trim().is_empty() {
                prop_assert!(replies.is_empty(), "blank line {:?} got {:?}", line, replies);
            } else if !resumed {
                prop_assert!(replies.len() == 1, "line {:?} got {:?}", line, replies);
            }
        }
    }
}
