//! Self-tests: the output checks must be able to fail. A corrupted
//! expected value and a corrupted `serve` reply must each raise
//! `failed` and make the command exit nonzero; a clean run must pass.

use std::path::{Path, PathBuf};
use std::process::Command;

fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the checkout root")
        .to_path_buf()
}

/// Runs the benchmark; returns (exit code, failed count).
fn run(args: &[&str]) -> (i32, u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(checkout())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let failed = last
        .split("\"failed\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no result line in {stdout}"));
    (out.status.code().unwrap_or(-1), failed)
}

#[test]
fn clean_conflict_run_passes() {
    let (code, failed) = run(&[
        "--workload",
        "conflict",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert_eq!((code, failed), (0, 0));
}

#[test]
fn corrupted_expected_value_fails_the_run() {
    let src = checkout().join("perfbench/expected");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupt-expected");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["conflict.txt", "figures.txt", "campaign.txt"] {
        std::fs::copy(src.join(name), dir.join(name)).unwrap();
    }
    // Seed 3 selects phase variant 3; corrupt one of its records.
    let text = std::fs::read_to_string(dir.join("conflict.txt")).unwrap();
    let corrupted = text.replacen(
        "v3/storm:12/uniform\tbenchmark=storm:12 scheme=uniform cycles=",
        "v3/storm:12/uniform\tbenchmark=storm:12 scheme=uniform cycles=9",
        1,
    );
    assert_ne!(text, corrupted, "the record to corrupt exists");
    std::fs::write(dir.join("conflict.txt"), corrupted).unwrap();
    let (code, failed) = run(&[
        "--workload",
        "conflict",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--expected",
        dir.to_str().unwrap(),
    ]);
    assert_ne!(code, 0);
    assert!(failed >= 1);
}

#[test]
fn corrupted_serve_reply_fails_the_run() {
    let (code, failed) = run(&[
        "--workload",
        "serve",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt-reply",
        "5",
    ]);
    assert_ne!(code, 0);
    assert_eq!(failed, 1);
}
