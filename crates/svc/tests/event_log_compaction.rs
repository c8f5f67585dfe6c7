//! The daemon's event log stays bounded: compaction keeps the lines of the
//! jobs the service still holds.  This test serves a few thousand jobs on
//! up to four workers, so it has a binary of its own: sharing one with the
//! scheduling tests of `service.rs` starved their timing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use fec_json::Json;
use fec_svc::{
    EventSink, Service, ServiceConfig, COMPACT_LOG_FLOOR, EVENT_LOG, KEPT_FINISHED_JOBS,
};

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

/// A fresh (removed) per-test log directory under the temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fec-svc-compact-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn event_type(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|e| e.get("type").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// The `job_id` of an event line.
fn job_of(line: &str) -> u64 {
    let event = Json::parse(line).unwrap();
    event
        .get("job_id")
        .and_then(fec_svc::protocol::as_u64)
        .unwrap()
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

/// The event log stays bounded.  Past `COMPACT_LOG_FLOOR`, a log holding
/// more than twice the bytes of the kept jobs is rewritten to their lines:
/// after three times `KEPT_FINISHED_JOBS` one-frame jobs, on 1 and on 4
/// workers, the log never outgrew twice the largest kept set, the first
/// job's lines are gone, a kept job replays exactly its own lines, a
/// dropped one is answered "no longer kept", and `svc_check` accepts the
/// replies and the log (the compliance job gives it its one-shot rows, the
/// first BER job the curve every BER job must repeat).
#[test]
fn the_event_log_is_compacted_to_the_kept_jobs() {
    use fec_json::ToJson;
    use noc_decoder::{run_multi_compliance_sharded, ComplianceScope, DecoderConfig, Standard};
    let tiny = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":1,"snrs":[6.0]}"#;
    let compliance =
        r#"{"type":"submit","job":"compliance","standard":"dvbrcs","scope":"corners"}"#;
    let mut one_shot = Vec::new();
    run_multi_compliance_sharded(
        &DecoderConfig::paper_design_point(),
        &[ComplianceScope::corners(Standard::DvbRcs)],
        1,
        |_, entry| one_shot.push(entry.to_json()),
    )
    .unwrap();
    let batch = 32;
    let jobs = 3 * KEPT_FINISHED_JOBS;
    for workers in [1, 4] {
        let dir = test_dir(&format!("w{workers}"));
        let svc = Service::new(ServiceConfig {
            workers,
            max_jobs: batch,
            log_dir: dir.clone(),
        })
        .expect("the test log directory is creatable");
        let log_path = dir.join(EVENT_LOG);
        let sink = RecordingSink::default();
        let mut largest_log = 0;
        for submitted in 0..jobs {
            assert!(svc.handle_line(tiny, &sink));
            if submitted % batch == batch - 1 {
                svc.drain();
                largest_log = largest_log.max(std::fs::metadata(&log_path).unwrap().len());
            }
        }
        assert!(svc.handle_line(compliance, &sink));
        svc.drain();
        let live = sink.lines();

        let mut lines_of: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for line in &live {
            lines_of.entry(job_of(line)).or_default().push(line.clone());
        }
        assert_eq!(lines_of.len(), jobs + 1);
        let bytes = |lines: &[String]| lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        let last = jobs as u64 + 1;
        let largest_job = lines_of.range(..last).map(|(_, lines)| bytes(lines)).max();
        let largest_job = largest_job.unwrap();
        let bound = 2 * (KEPT_FINISHED_JOBS + batch) as u64 * largest_job;
        assert!(bytes(&live) > bound, "the jobs write more than the bound");
        assert!(
            largest_log <= COMPACT_LOG_FLOOR.max(bound),
            "{workers} workers: the log reached {largest_log} bytes, bound {bound}"
        );
        let log = std::fs::read_to_string(&log_path).unwrap();
        assert!(
            log.lines().all(|line| job_of(line) > 1),
            "job 1's lines were compacted away"
        );
        assert_eq!(files_in(&dir), [EVENT_LOG]);

        let reply = |request: String| {
            let sink = RecordingSink::default();
            assert!(svc.handle_line(&request, &sink));
            sink.lines()
        };
        // the oldest kept job is the KEPT_FINISHED_JOBS-th last to finish
        let finished: Vec<u64> = live
            .iter()
            .filter(|line| event_type(line) == "done")
            .map(|line| job_of(line))
            .collect();
        let oldest_kept = finished[finished.len() - KEPT_FINISHED_JOBS];
        for kept in [last, oldest_kept] {
            assert_eq!(
                reply(format!(r#"{{"type":"resume","job_id":{kept}}}"#)),
                lines_of[&kept],
                "{workers} workers: job {kept} replays exactly its lines"
            );
        }
        let dropped = reply(r#"{"type":"resume","job_id":1}"#.to_string());
        assert!(
            dropped[0].contains("job 1 is no longer kept"),
            "{dropped:?}"
        );

        // svc_check over the replies and the compacted log
        let first_row = Json::parse(&lines_of[&1][1]).unwrap();
        let data = first_row.get("data").unwrap();
        let curve = Json::obj([(
            "curves",
            Json::arr([Json::obj([
                ("label", data.get("label").unwrap().clone()),
                ("points", Json::arr([data.get("point").unwrap().clone()])),
            ])]),
        )]);
        let reference = Json::obj([
            ("table", Json::str("compliance")),
            ("scope", Json::str("corners")),
            ("standard", Json::str(Standard::DvbRcs.name())),
            ("rows", Json::arr(one_shot.iter().cloned())),
        ]);
        let write = |file: &str, text: String| {
            let path = dir.join(file);
            std::fs::write(&path, text).unwrap();
            path
        };
        let replies = write("replies.ndjson", live.join("\n") + "\n");
        let curve = write("curve.json", curve.to_string());
        let reference = write("compliance.json", reference.to_string());
        let check = std::process::Command::new(env!("CARGO_BIN_EXE_svc_check"))
            .args([&replies, &curve, &reference])
            .arg("--log-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            check.status.success(),
            "{workers} workers: {}",
            String::from_utf8_lossy(&check.stderr)
        );
    }
}
