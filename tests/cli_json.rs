//! The `bmbe` binary's JSON-line output stays valid JSON whatever its
//! strings hold: a batch job's label is its file path, and a path may hold
//! a tab or a quote.

use bmbe_obs::json;
use std::process::Command;

#[test]
fn batch_lines_are_valid_json_for_a_path_holding_a_tab() {
    let dir = std::env::temp_dir().join(format!("bmbe_cli_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t\tick \"1\".balsa");
    let source = "procedure tick (sync a) is\nbegin\n  loop sync a end\nend\n";
    std::fs::write(&path, source).expect("write source");
    let out = Command::new(env!("CARGO_BIN_EXE_bmbe"))
        .arg("batch")
        .arg(&path)
        .env_remove("BMBE_CACHE_DIR")
        .env_remove("BMBE_FAULT")
        .output()
        .expect("bmbe runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().count(), 2, "one job line and the summary");
    for line in stdout.lines() {
        assert!(json::parse(line).is_ok(), "{line}");
    }
}

/// A failing job's line keeps the job's identity: the component and cache
/// key that re-run the failure in isolation travel with the phase and error.
#[test]
fn batch_failure_line_names_its_component_and_cache_key() {
    let dir = std::env::temp_dir().join(format!("bmbe_cli_json_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tick.balsa");
    let source = "procedure tick (sync a) is\nbegin\n  loop sync a end\nend\n";
    std::fs::write(&path, source).expect("write source");
    let out = Command::new(env!("CARGO_BIN_EXE_bmbe"))
        .arg("batch")
        .arg(&path)
        .env_remove("BMBE_CACHE_DIR")
        .env("BMBE_FAULT", "synth:0:err")
        // The failed job dumps the flight recorder; keep the dump out of
        // the working directory.
        .env("BMBE_FLIGHT_OUT", dir.join("flight.json"))
        .output()
        .expect("bmbe runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "an injected fault must fail the batch"
    );
    let job = stdout.lines().next().expect("a job line");
    assert!(json::parse(job).is_ok(), "{job}");
    assert!(job.contains("\"ok\": false"), "{job}");
    for field in ["component", "cache_key"] {
        let key = format!("\"{field}\": \"");
        assert!(
            job.contains(&key) && !job.contains(&format!("{key}\"")),
            "{job}: missing or empty {field}"
        );
    }
}
