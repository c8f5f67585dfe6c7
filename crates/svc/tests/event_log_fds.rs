//! The event log is one file behind one descriptor, however many jobs the
//! service runs.  This test has a binary of its own, so no sibling test
//! opens or closes descriptors while it counts them.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};

use fec_svc::{EventSink, Service, ServiceConfig, EVENT_LOG};

#[derive(Clone, Default)]
struct RecordingSink(Arc<Mutex<Vec<String>>>);

impl EventSink for RecordingSink {
    fn deliver(&mut self, line: &str) -> bool {
        self.0.lock().unwrap().push(line.to_string());
        true
    }
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn three_hundred_jobs_keep_one_log_file_and_no_extra_descriptors() {
    let dir = std::env::temp_dir().join(format!("fec-svc-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::new(ServiceConfig {
        workers: 1,
        max_jobs: 8,
        log_dir: dir.clone(),
    })
    .unwrap();
    let sink = RecordingSink::default();
    let job = r#"{"type":"submit","job":"ber","standard":"wimax","codec":"layered","frames":1,"snrs":[3.0]}"#;
    let mut after_first_job = 0;
    for submitted in 1..=300 {
        assert!(svc.handle_line(job, &sink));
        svc.drain();
        if submitted == 1 {
            after_first_job = open_descriptors();
        }
    }
    let open = open_descriptors();
    let completed = sink
        .0
        .lock()
        .unwrap()
        .iter()
        .filter(|line| line.contains(r#""type":"done""#) && line.contains(r#""completed""#))
        .count();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(completed, 300);
    assert!(
        open <= after_first_job,
        "{open} descriptors after 300 jobs, {after_first_job} after the first"
    );
    assert_eq!(files, [EVENT_LOG]);
}
