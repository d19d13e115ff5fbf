//! The epilogue every report binary shares.
//!
//! Each bench bin follows the same contract: stdout is pure JSON (one
//! report object, or one object per line), the human-readable narration
//! goes to stderr via `bmbe_obs::vlog!`, errors surface as a single
//! `error: <bin>: ...` stderr line with a non-zero exit, and a report
//! destined for a `BENCH_*.json` file is written there *and* echoed to
//! stdout. That boilerplate used to be copied into `perf_report`,
//! `sim_report`, and `batch_report` separately; it lives here so
//! `trace_report` and `bench_trend` don't copy it a fourth and fifth
//! time.

use std::process::ExitCode;

/// Parses `--flag VALUE` as a number, with a default. Shared by every bin
/// that takes numeric knobs (`--replicas`, `--threads`, ...).
///
/// # Errors
///
/// The flag is present without a value, or the value does not parse.
pub fn flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Parses `--flag VALUE` as a string, with no default.
pub fn flag_str(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// The shared `main` body: run `body`, map `Ok(true)` to success,
/// `Ok(false)` to a silent failure exit (the body already reported), and
/// `Err` to the single structured `error: <bin>: ...` stderr line. Stdout
/// stays pure JSON either way.
pub fn run_main(bin: &str, body: impl FnOnce() -> Result<bool, String>) -> ExitCode {
    match body() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {bin}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes a finished JSON report to `path`, echoes it to stdout (the
/// machine-readable channel), and narrates the write on stderr.
///
/// # Errors
///
/// The filesystem write failed.
pub fn emit_report(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    print!("{json}");
    bmbe_obs::vlog!(1, "wrote {path}");
    Ok(())
}

/// Writes a drained trace as both a Chrome trace (`BMBE_TRACE_OUT`,
/// default `trace.json`) and a self-describing JSONL stream next to it
/// (`.json` stem swapped for `.jsonl`). Returns `(chrome_path,
/// jsonl_path)`.
///
/// # Errors
///
/// Either filesystem write failed.
pub fn write_trace_files(trace: &bmbe_obs::export::Trace) -> Result<(String, String), String> {
    let out_path = bmbe_obs::trace_out_path();
    let jsonl_path = bmbe_obs::sibling_out_path(&out_path, "jsonl");
    let chrome = bmbe_obs::export::export_chrome(trace);
    std::fs::write(&out_path, &chrome).map_err(|e| format!("write {out_path}: {e}"))?;
    let jsonl = bmbe_obs::export::export_jsonl(trace);
    std::fs::write(&jsonl_path, &jsonl).map_err(|e| format!("write {jsonl_path}: {e}"))?;
    bmbe_obs::vlog!(1, "wrote {out_path} and {jsonl_path}");
    Ok((out_path, jsonl_path))
}

/// The trace-export epilogue for bins whose *work* is the product (the
/// batch driver, the report generators): when the run was traced
/// (`BMBE_TRACE=1`), drain the rings and write the Chrome + JSONL pair so
/// a fleet of traced processes each leaves a mergeable stream behind.
/// No-op when tracing is off — the bins pay nothing by calling it
/// unconditionally.
///
/// # Errors
///
/// A trace was collected but could not be written.
pub fn export_trace_if_enabled() -> Result<Option<(String, String)>, String> {
    if !bmbe_obs::enabled() {
        return Ok(None);
    }
    bmbe_obs::set_enabled(false);
    let trace = bmbe_obs::flush();
    write_trace_files(&trace).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parses_and_defaults() {
        let args: Vec<String> = ["--replicas", "7"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&args, "--replicas", 3).unwrap(), 7);
        assert_eq!(flag(&args, "--threads", 4).unwrap(), 4);
        assert!(flag(&["--replicas".to_string()], "--replicas", 3).is_err());
        assert!(flag(&["--replicas".into(), "x".into()], "--replicas", 3).is_err());
        let sargs: Vec<String> = ["--out", "p.json"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            flag_str(&sargs, "--out").unwrap().as_deref(),
            Some("p.json")
        );
        assert_eq!(flag_str(&sargs, "--in").unwrap(), None);
    }
}
