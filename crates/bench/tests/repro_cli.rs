//! The `repro` driver refuses ids it does not know before running
//! anything: a stale script calling a removed experiment must fail, not
//! pass silently.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_1_before_running_anything() {
    // `fig1` is known and cheap, but must not run: the bad id is caught
    // first, so nothing is written and stdout stays empty.
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "nosuchfig"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown experiment(s): nosuchfig"),
        "{stderr}"
    );
    assert!(stderr.contains("fig14xl"), "known ids listed: {stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
    assert!(!dir.join("results").exists(), "an experiment wrote results");
    let _ = std::fs::remove_dir_all(&dir);
}
