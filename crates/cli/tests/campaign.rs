//! End-to-end campaign runner test against the real `cmvrp` binary:
//! fault-injected SIGKILL recovery from the last checkpoint, the
//! dead-letter list for retry-exhausted runs, `campaign status`, and
//! `campaign retry-dead` — the acceptance path of the checkpoint/resume
//! subsystem.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cmvrp")
}

fn cmvrp(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn cmvrp");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmvrp_campaign_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn campaign_recovers_killed_runs_and_dead_letters_hopeless_ones() {
    let root = scratch("full");
    let spec_path = root.join("panel.spec");
    let dir = root.join("state");
    // `recovers` is SIGKILLed by fault injection right after its first
    // fresh checkpoint lands, then must finish by resuming from it.
    // `doomed` names a workload shape that does not exist, so every
    // attempt exits 2 and it must land in the dead-letter list.
    std::fs::write(
        &spec_path,
        "# e2e panel\n\
         backoff_ms = 10\n\
         \n\
         [recovers]\n\
         workload = clusters:grid=12,k=3,jobs=180,seed=9\n\
         threads = 2\n\
         check = true\n\
         checkpoint_every = 2\n\
         retries = 2\n\
         inject_kill = 1\n\
         \n\
         [doomed]\n\
         workload = blob:grid=4\n\
         threads = 2\n\
         retries = 1\n",
    )
    .expect("write spec");
    let (out, err, status) = cmvrp(&[
        "campaign",
        "run",
        spec_path.to_str().unwrap(),
        &format!("--dir={}", dir.display()),
    ]);
    // One dead run => scriptable exit 1 (not the usage-error 2).
    assert_eq!(status, 1, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("killed by fault injection"), "{out}");
    assert!(
        out.contains("recovers: attempt 2 (resuming from checkpoint)"),
        "{out}"
    );
    assert!(out.contains("recovers: done after 2 attempt(s)"), "{out}");
    assert!(out.contains("dead after 2 attempt(s)"), "{out}");
    assert!(out.contains("dead-letter: 1 run(s)"), "{out}");
    // The killed run's checkpoint survived and is inspectable.
    let ckpt = dir.join("recovers.cmvc");
    assert!(ckpt.exists());
    let (out, _, status) = cmvrp(&["ckpt", "inspect", ckpt.to_str().unwrap()]);
    assert_eq!(status, 0);
    assert!(out.contains("--threads=2 --check"), "{out}");

    // `campaign status` re-renders the persisted state, exit 1 while the
    // dead-letter list is non-empty.
    let (out, _, status) = cmvrp(&["campaign", "status", dir.to_str().unwrap()]);
    assert_eq!(status, 1);
    assert!(out.contains("recovers"), "{out}");
    assert!(out.contains("done"), "{out}");
    assert!(out.contains("DEAD"), "{out}");
    assert!(out.contains("retry-dead"), "{out}");

    // `retry-dead` re-runs only the dead run (the spec is unchanged, so it
    // dies again) and leaves the completed one untouched.
    let (out, _, status) = cmvrp(&[
        "campaign",
        "retry-dead",
        spec_path.to_str().unwrap(),
        &format!("--dir={}", dir.display()),
    ]);
    assert_eq!(status, 1);
    assert!(out.contains("doomed: attempt 1"), "{out}");
    assert!(!out.contains("recovers: attempt"), "{out}");
    assert!(out.contains("dead-letter: 1 run(s)"), "{out}");

    // A recovered run's resumed tail matches an uninterrupted reference:
    // the report `campaign`'s child produced is byte-reproducible here.
    let (reference, _, status) = cmvrp(&[
        "simulate",
        "clusters:grid=12,k=3,jobs=180,seed=9",
        "--threads=2",
        "--check",
    ]);
    assert_eq!(status, 0);
    assert!(reference.contains("served: 180/180"), "{reference}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn retry_dead_with_clean_state_is_a_no_op() {
    let root = scratch("clean");
    let spec_path = root.join("panel.spec");
    let dir = root.join("state");
    std::fs::write(
        &spec_path,
        "[ok]\nworkload = point:grid=9,demand=30\nthreads = 2\nretries = 0\n",
    )
    .expect("write spec");
    let (out, err, status) = cmvrp(&[
        "campaign",
        "run",
        spec_path.to_str().unwrap(),
        &format!("--dir={}", dir.display()),
    ]);
    assert_eq!(status, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("all 1 run(s) completed"), "{out}");
    assert!(Path::new(&dir).join("state.tsv").exists());
    let (out, _, status) = cmvrp(&[
        "campaign",
        "retry-dead",
        spec_path.to_str().unwrap(),
        &format!("--dir={}", dir.display()),
    ]);
    assert_eq!(status, 0);
    assert!(out.contains("nothing to retry"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}
