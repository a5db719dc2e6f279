//! The benchmark must refuse a wrong answer: with `--corrupt-answer` the
//! command exits non-zero and its result line says `"correct": false`.

use std::process::Command;

fn run(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "dist_trsm", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn a_corrupted_answer_fails_the_command() {
    let (ok, last) = run(&["--corrupt-answer"]);
    assert!(!ok, "a corrupted answer must make the command fail");
    assert!(last.contains("\"correct\": false"), "result line: {last}");
}

#[test]
fn a_clean_run_passes() {
    let (ok, last) = run(&[]);
    assert!(ok, "result line: {last}");
    assert!(last.contains("\"correct\": true") && last.contains("\"failed\": 0"));
}
