//! The `sfqpart` binary as a pipeline stage.

use std::process::{Command, Stdio};

/// A reader that goes away mid-stream ends the output, not the run: the
/// exit code stays the run's own and nothing panics. C3540's DEF text
/// (about 250 KB) is larger than a pipe buffer, so the write after the
/// read end closes is certain to fail with `EPIPE`.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfqpart"))
        .args(["generate", "C3540"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sfqpart starts");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("sfqpart exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
