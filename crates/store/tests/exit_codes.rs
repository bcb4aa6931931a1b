//! `trace_tool` honors the workspace exit-code convention: `0` ok, `1`
//! runtime failure, `2` bad invocation — the shared `jpmd_store::cli`
//! contract, tested by spawning the real binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use jpmd_store::{Header, TraceWriter};
use jpmd_trace::{AccessKind, FileId, TraceRecord};

fn tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("spawn trace_tool")
}

/// Time a hostile file may cost the tool. A run that floods the pipes
/// with output blocks on them and counts as hung too.
const LIMIT: Duration = Duration::from_secs(5);

/// [`tool`], failing the test when the tool is still running after
/// [`LIMIT`].
fn tool_within_limit(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trace_tool");
    let start = Instant::now();
    while child.try_wait().expect("poll trace_tool").is_none() {
        if start.elapsed() > LIMIT {
            child.kill().ok();
            child.wait().ok();
            panic!("trace_tool {args:?} still running after {LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect trace_tool output")
}

/// What a writer that dies before `finish` leaves: an unsealed header in
/// front of two full pages.
fn write_unfinished_store(path: &Path) {
    let mut writer = TraceWriter::create(path, 4096, 1000).expect("create store");
    for i in 0..300u64 {
        let record = TraceRecord {
            time: i as f64,
            file: FileId(0),
            first_page: i,
            pages: 1,
            kind: AccessKind::Read,
        };
        writer.write_record(&record).expect("write record");
    }
    drop(writer);
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jpmd-store-exit-{}-{name}", std::process::id()))
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["gen"][..],
        &["verify"][..],
        &["scale-rate", "a", "b", "not-a-number"][..],
    ] {
        let out = tool(args);
        assert_eq!(code(&out), 2, "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }

    // `scan` on a non-.jpt path is a usage error too.
    let out = tool(&["scan", "trace.json"]);
    assert_eq!(code(&out), 2);
}

#[test]
fn runtime_failures_exit_1() {
    let out = tool(&["verify", "/nonexistent/trace.jpt"]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // A never-finished store is refused at open, before any page is read,
    // by every command that reads it.
    let torn = scratch("torn.jpt");
    write_unfinished_store(&torn);
    for command in ["verify", "scan", "stats"] {
        let out = tool_within_limit(&[command, torn.to_str().unwrap()]);
        assert_eq!(code(&out), 1, "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unsealed"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} printed pages");
    }
    std::fs::remove_file(&torn).ok();
}

#[test]
fn a_header_claiming_2_to_the_40_records_costs_nothing() {
    // A valid header in front of no pages at all: scan prints one line
    // for the unreachable tail (not one per claimed page) and the
    // summary, and nothing sizes its work from the claim.
    let lying = scratch("lying.jpt");
    let header = Header {
        page_size: 4096,
        page_bytes: 4096,
        total_pages: 100,
        record_count: 1 << 40,
    };
    std::fs::write(&lying, header.encode()).expect("write lying store");
    let path = lying.to_str().unwrap();

    let scan = tool_within_limit(&["scan", path]);
    assert_eq!(code(&scan), 1);
    let stdout = String::from_utf8_lossy(&scan.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("pages 1..="), "{stdout}");
    assert!(lines[0].contains("truncated"), "{stdout}");

    for command in ["verify", "stats"] {
        let out = tool_within_limit(&[command, path]);
        assert_eq!(code(&out), 1, "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("truncated inside page 1"),
            "{command}: {stderr}"
        );
    }
    std::fs::remove_file(&lying).ok();
}

#[test]
fn gen_and_verify_round_trip_exit_0() {
    let path = scratch("roundtrip.jpt");
    let path_str = path.to_str().unwrap();

    let gen = tool(&["gen", path_str, "1", "4", "0.1", "60", "7"]);
    assert_eq!(code(&gen), 0, "{}", String::from_utf8_lossy(&gen.stderr));
    assert!(String::from_utf8_lossy(&gen.stdout).contains("wrote"));

    let verify = tool(&["verify", path_str]);
    assert_eq!(code(&verify), 0);
    assert!(String::from_utf8_lossy(&verify.stdout).starts_with("ok:"));
    std::fs::remove_file(&path).ok();
}
