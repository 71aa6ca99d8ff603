//! Campaign runner: a panel of named `cmvrp simulate` runs with
//! checkpointing, bounded-backoff retries, and a dead-letter list.
//!
//! A campaign spec is a sectioned key/value file, read by the scenario
//! lexer ([`cmvrp_scenario::parse::lex`]) so it shares the comment,
//! quoting and error-position rules of scenario files:
//!
//! ```text
//! # keys before the first section are defaults for every run
//! checkpoint_every = 2
//! retries = 2
//! backoff_ms = 50
//!
//! [hot-point]
//! workload = point:grid=12,demand=160
//! threads = 2
//! check = true
//! ```
//!
//! Four keys steer the runner itself — `checkpoint_every` (round cadence
//! of snapshots), `retries` (extra attempts after the first), `backoff_ms`
//! (base of the bounded exponential pause between attempts), and
//! `inject_kill` (fault injection: SIGKILL the run after its next
//! checkpoint lands, for the first N attempts — the recovery smoke test).
//! `workload` names the simulate workload spec and is required — either
//! the inline `shape:key=value,...` syntax or `@scenario.toml`, a
//! (fault-free) scenario file that the simulate subprocess parses with
//! the same `Scenario` entry point as every other frontend. Every
//! other key becomes a `cmvrp simulate` flag: `k = v` is passed as
//! `--k=v`, and `k = true` as the bare flag `--k`.
//!
//! Each run checkpoints into `<dir>/<name>.cmvc` and its trace (if the
//! spec asks for one) wherever the spec says. A failed or killed attempt
//! retries *from the last checkpoint* — the executor passes
//! `--resume-from` whenever the checkpoint file exists — so recovery
//! replays only the tail. Runs that exhaust their retry budget are parked
//! in the dead-letter list, persisted to `<dir>/state.tsv`; `cmvrp
//! campaign status` renders it and `cmvrp campaign retry-dead` grants the
//! dead runs a fresh budget.

use cmvrp_scenario::parse::{lex, Lexeme};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One named run from a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Section name — the run's identity in state and file names.
    pub name: String,
    /// The `cmvrp simulate` workload spec (`shape:key=value,...` or
    /// `@scenario.toml`).
    pub workload: String,
    /// Extra simulate flags, already rendered (`--threads=2`, `--check`).
    pub args: Vec<String>,
    /// Checkpoint cadence in rounds.
    pub checkpoint_every: u64,
    /// Extra attempts after the first before the run goes dead.
    pub retries: u32,
    /// Base of the bounded exponential backoff between attempts.
    pub backoff_ms: u64,
    /// Fault injection: SIGKILL the child after its next checkpoint
    /// lands, for the first N attempts.
    pub inject_kill: u32,
}

/// Default checkpoint cadence when neither the defaults block nor the run
/// sets `checkpoint_every`.
const DEFAULT_EVERY: u64 = 1;
/// Default retry budget.
const DEFAULT_RETRIES: u32 = 2;
/// Default backoff base.
const DEFAULT_BACKOFF_MS: u64 = 100;

/// The backoff is bounded: the pause before attempt `n` is
/// `backoff_ms · 2^(n-1)`, capped at `backoff_ms · 2^BACKOFF_CAP_DOUBLINGS`.
const BACKOFF_CAP_DOUBLINGS: u32 = 3;

/// Pause before retry `attempt` (1-based), in milliseconds.
pub fn backoff_for(backoff_ms: u64, attempt: u32) -> u64 {
    backoff_ms.saturating_mul(1 << attempt.saturating_sub(1).min(BACKOFF_CAP_DOUBLINGS))
}

/// Parses a campaign spec into its runs, in the order their sections
/// appear. Errors carry the 1-based line and column and name what was
/// expected.
pub fn parse_spec(text: &str) -> Result<Vec<RunSpec>, String> {
    #[derive(Default)]
    struct Section<'a> {
        name: &'a str,
        line: usize,
        col: usize,
        workload: Option<&'a str>,
        args: Vec<String>,
        every: Option<u64>,
        retries: Option<u32>,
        backoff_ms: Option<u64>,
        inject_kill: Option<u32>,
    }
    let at = |line: usize, col: usize, msg: &str| format!("spec line {line}, col {col}: {msg}");
    let mut defaults = Section::default();
    let mut sections: Vec<Section> = Vec::new();
    for lexeme in lex(text) {
        match lexeme.map_err(|e| at(e.line, e.col, &e.msg))? {
            Lexeme::Section { line, col, name } => {
                if sections.iter().any(|s| s.name == name) {
                    return Err(at(line, col, &format!("duplicate run name {name:?}")));
                }
                sections.push(Section {
                    name,
                    line,
                    col,
                    ..Section::default()
                });
            }
            Lexeme::Pair {
                line,
                key,
                vcol,
                val,
                ..
            } => {
                let target = sections.last_mut().unwrap_or(&mut defaults);
                let bad = |what: &str| at(line, vcol, &format!("{key} needs {what}, got {val:?}"));
                match key {
                    "workload" => target.workload = Some(val),
                    "checkpoint_every" => {
                        target.every = Some(val.parse().map_err(|_| bad("a round count >= 1"))?);
                        if target.every == Some(0) {
                            return Err(bad("a round count >= 1"));
                        }
                    }
                    "retries" => target.retries = Some(val.parse().map_err(|_| bad("a count"))?),
                    "backoff_ms" => {
                        target.backoff_ms = Some(val.parse().map_err(|_| bad("milliseconds"))?)
                    }
                    "inject_kill" => {
                        target.inject_kill = Some(val.parse().map_err(|_| bad("a count"))?)
                    }
                    _ => target.args.push(if val == "true" {
                        format!("--{key}")
                    } else {
                        format!("--{key}={val}")
                    }),
                }
            }
        }
    }
    if sections.is_empty() {
        return Err("spec has no runs: add a `[name]` section per run".to_string());
    }
    sections
        .into_iter()
        .map(|s| {
            let workload = s.workload.or(defaults.workload).ok_or_else(|| {
                at(
                    s.line,
                    s.col,
                    &format!("run {:?} has no `workload = shape:...` key", s.name),
                )
            })?;
            // Defaults first so a run's own flags win by coming later.
            let mut args = defaults.args.clone();
            args.extend(s.args);
            Ok(RunSpec {
                name: s.name.to_string(),
                workload: workload.to_string(),
                args,
                checkpoint_every: s.every.or(defaults.every).unwrap_or(DEFAULT_EVERY),
                retries: s.retries.or(defaults.retries).unwrap_or(DEFAULT_RETRIES),
                backoff_ms: s
                    .backoff_ms
                    .or(defaults.backoff_ms)
                    .unwrap_or(DEFAULT_BACKOFF_MS),
                inject_kill: s.inject_kill.or(defaults.inject_kill).unwrap_or(0),
            })
        })
        .collect()
}

/// Outcome of one attempt of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The run finished cleanly.
    Completed,
    /// The run failed or was killed; the string says how.
    Failed(String),
}

/// How the runner executes a single attempt — a trait so the retry/DLQ
/// machinery is unit-testable without spawning processes.
pub trait Executor {
    /// Runs one attempt. `resume` is true when the checkpoint file exists
    /// and the attempt should continue from it.
    fn attempt(
        &mut self,
        run: &RunSpec,
        ckpt_path: &Path,
        resume: bool,
        attempt: u32,
    ) -> AttemptOutcome;

    /// Pauses between attempts; the default sleeps for real.
    fn pause(&mut self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Terminal state of one run after the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Run name from the spec.
    pub name: String,
    /// True when the run completed; false when it is in the dead-letter
    /// list.
    pub done: bool,
    /// Attempts consumed (including the successful one).
    pub attempts: u32,
    /// Last failure message (empty for completed runs).
    pub error: String,
}

impl fmt::Display for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}",
            self.name,
            if self.done { "done" } else { "dead" },
            self.attempts,
            self.error.replace(['\t', '\n'], " ")
        )
    }
}

/// Runs each of `runs`, checkpointing into `dir`, retrying failures from
/// their last checkpoint, and parking retry-exhausted runs in the
/// dead-letter list. `progress` receives one line per attempt and
/// verdict. Returns the records in the order of `runs`.
pub fn run_campaign(
    runs: &[RunSpec],
    dir: &Path,
    exec: &mut dyn Executor,
    progress: &mut dyn FnMut(&str),
) -> Vec<RunRecord> {
    runs.iter()
        .map(|run| retry_run(run, dir, exec, progress))
        .collect()
}

/// One run's full attempt/retry/dead-letter lifecycle.
fn retry_run(
    run: &RunSpec,
    dir: &Path,
    exec: &mut dyn Executor,
    progress: &mut dyn FnMut(&str),
) -> RunRecord {
    let ckpt_path = dir.join(format!("{}.cmvc", run.name));
    let mut attempts = 0u32;
    loop {
        let resume = ckpt_path.exists();
        progress(&format!(
            "{}: attempt {}{}",
            run.name,
            attempts + 1,
            if resume {
                " (resuming from checkpoint)"
            } else {
                ""
            }
        ));
        let outcome = exec.attempt(run, &ckpt_path, resume, attempts);
        attempts += 1;
        match outcome {
            AttemptOutcome::Completed => {
                progress(&format!("{}: done after {attempts} attempt(s)", run.name));
                return RunRecord {
                    name: run.name.clone(),
                    done: true,
                    attempts,
                    error: String::new(),
                };
            }
            AttemptOutcome::Failed(error) => {
                if attempts > run.retries {
                    progress(&format!(
                        "{}: dead after {attempts} attempt(s): {error}",
                        run.name
                    ));
                    return RunRecord {
                        name: run.name.clone(),
                        done: false,
                        attempts,
                        error,
                    };
                }
                let pause = backoff_for(run.backoff_ms, attempts);
                progress(&format!(
                    "{}: attempt {attempts} failed ({error}); retrying in {pause}ms",
                    run.name
                ));
                exec.pause(pause);
            }
        }
    }
}

/// Persists campaign records to `<dir>/state.tsv` (one tab-separated line
/// per run: name, done|dead, attempts, error).
pub fn save_state(dir: &Path, records: &[RunRecord]) -> io::Result<()> {
    let text: String = records.iter().map(|r| format!("{r}\n")).collect();
    fs::write(state_path(dir), text)
}

/// Loads campaign records from `<dir>/state.tsv`.
pub fn load_state(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let path = state_path(dir);
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read campaign state {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let mut it = line.splitn(4, '\t');
            let mut parse = || -> Option<RunRecord> {
                let name = it.next()?.to_string();
                let done = match it.next()? {
                    "done" => true,
                    "dead" => false,
                    _ => return None,
                };
                let attempts = it.next()?.parse().ok()?;
                Some(RunRecord {
                    name,
                    done,
                    attempts,
                    error: it.next().unwrap_or("").to_string(),
                })
            };
            parse().ok_or_else(|| {
                format!(
                    "{}:{}: expected `name<TAB>done|dead<TAB>attempts<TAB>error`",
                    path.display(),
                    i + 1
                )
            })
        })
        .collect()
}

fn state_path(dir: &Path) -> PathBuf {
    dir.join("state.tsv")
}

/// The real executor: spawns `cmvrp simulate` subprocesses.
#[derive(Debug, Clone)]
pub struct ProcessExecutor {
    /// The `cmvrp` binary to spawn — normally `std::env::current_exe()`,
    /// overridable for tests and cross-binary setups.
    pub bin: PathBuf,
}

impl ProcessExecutor {
    /// Builds the simulate argv for one attempt.
    fn argv(&self, run: &RunSpec, ckpt_path: &Path, resume: bool) -> Vec<String> {
        let mut argv = vec!["simulate".to_string(), run.workload.clone()];
        argv.extend(run.args.iter().cloned());
        argv.push(format!("--checkpoint={}", ckpt_path.display()));
        argv.push(format!("--checkpoint-every={}", run.checkpoint_every));
        if resume {
            argv.push(format!("--resume-from={}", ckpt_path.display()));
        }
        argv
    }

    /// Rounds recorded in the checkpoint file, or `None` while it does not
    /// exist / is mid-rename.
    fn ckpt_round(path: &Path) -> Option<u64> {
        crate::codec::read_checkpoint(path)
            .ok()
            .map(|c| c.rounds_completed)
    }
}

impl Executor for ProcessExecutor {
    fn attempt(
        &mut self,
        run: &RunSpec,
        ckpt_path: &Path,
        resume: bool,
        attempt: u32,
    ) -> AttemptOutcome {
        let argv = self.argv(run, ckpt_path, resume);
        let mut cmd = Command::new(&self.bin);
        cmd.args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => return AttemptOutcome::Failed(format!("cannot spawn {:?}: {e}", self.bin)),
        };
        // Fault injection: once the run lands a *new* checkpoint, kill it
        // mid-flight. The atomic rename in the codec guarantees the poll
        // only ever reads complete snapshots.
        if attempt < run.inject_kill {
            let before = Self::ckpt_round(ckpt_path);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                if let Ok(Some(_)) = child.try_wait() {
                    break; // finished before the next checkpoint; judge normally
                }
                if Self::ckpt_round(ckpt_path) > before {
                    let _ = child.kill();
                    let _ = child.wait();
                    return AttemptOutcome::Failed(
                        "killed by fault injection after checkpoint".to_string(),
                    );
                }
                if std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let out = match child.wait_with_output() {
            Ok(o) => o,
            Err(e) => return AttemptOutcome::Failed(format!("wait failed: {e}")),
        };
        if out.status.success() {
            return AttemptOutcome::Completed;
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().last().unwrap_or("").trim();
        AttemptOutcome::Failed(match out.status.code() {
            Some(code) if !last.is_empty() => format!("exit {code}: {last}"),
            Some(code) => format!("exit {code}"),
            None => "killed by signal".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# campaign defaults
checkpoint_every = 2
retries = 1
backoff_ms = 10
threads = 2

[hot]
workload = point:grid=12,demand=120
check = true

[cold]
workload = uniform:grid=10,jobs=40,seed=3
retries = 0
check = true
";

    #[test]
    fn parses_sections_defaults_and_flag_rendering() {
        let runs = parse_spec(SPEC).expect("parse");
        assert_eq!(runs.len(), 2);
        let hot = &runs[0];
        assert_eq!(hot.name, "hot");
        assert_eq!(hot.workload, "point:grid=12,demand=120");
        assert_eq!(hot.args, vec!["--threads=2", "--check"]);
        assert_eq!(
            (hot.checkpoint_every, hot.retries, hot.backoff_ms),
            (2, 1, 10)
        );
        let cold = &runs[1];
        assert_eq!(cold.retries, 0);
        assert_eq!(cold.args, vec!["--threads=2", "--check"]);
    }

    #[test]
    fn scenario_file_workloads_pass_through_to_simulate_unchanged() {
        // `workload = @scenarios/f.toml` is not interpreted by the
        // campaign parser — the spec string travels verbatim into the
        // simulate subprocess argv, where the shared Scenario entry
        // point resolves it.
        let spec = parse_spec("[quake]\nworkload = @scenarios/earthquake.toml\nthreads = 2\n")
            .expect("parse");
        let run = &spec[0];
        assert_eq!(run.workload, "@scenarios/earthquake.toml");
        let exec = ProcessExecutor {
            bin: PathBuf::from("cmvrp"),
        };
        let argv = exec.argv(run, Path::new("/tmp/q.cmvc"), false);
        assert_eq!(argv[0], "simulate");
        assert_eq!(argv[1], "@scenarios/earthquake.toml");
        assert!(argv.contains(&"--threads=2".to_string()));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_spec("[a]\nworkload point\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("key = value"), "{err}");
        let err = parse_spec("[a]\nthreads = 2\n").unwrap_err();
        assert!(err.contains("no `workload"), "{err}");
        let err = parse_spec("[a]\nworkload = x\n[a]\nworkload = y\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = parse_spec("# empty\n").unwrap_err();
        assert!(err.contains("no runs"), "{err}");
        let err = parse_spec("[a]\nworkload = x\ncheckpoint_every = 0\n").unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
    }

    #[test]
    fn parse_errors_carry_columns() {
        let err = parse_spec("[a]\nworkload = x\nretries =  many\n").unwrap_err();
        assert!(
            err.starts_with("spec line 3, col 12: retries needs a count"),
            "{err}"
        );
        let err = parse_spec("[a]\nworkload = x\n  [a]\n").unwrap_err();
        assert!(
            err.starts_with("spec line 3, col 4: duplicate run name"),
            "{err}"
        );
        let err = parse_spec("[a]\n[b]\nworkload = x\n").unwrap_err();
        assert!(
            err.starts_with("spec line 1, col 2: run \"a\" has no"),
            "{err}"
        );
    }

    #[test]
    fn hash_in_a_value_is_not_a_comment() {
        // Comments start at the start of a line or after whitespace only.
        let spec = parse_spec(
            "# defaults\nthreads = 2 # two workers\n\
             [run#1]\nworkload = point:grid=9,demand=5\ntrace-jsonl = run#1.jsonl\n",
        )
        .expect("parse");
        let run = &spec[0];
        assert_eq!(run.name, "run#1");
        assert_eq!(run.args, vec!["--threads=2", "--trace-jsonl=run#1.jsonl"]);
    }

    /// Deterministic byte flips of a real spec, then plain garbage: parsing
    /// returns runs or an error that names its position, and never panics.
    #[test]
    fn random_mutations_are_scoped_errors() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..4000 {
            let bytes: Vec<u8> = if round % 2 == 0 {
                let mut bytes = SPEC.as_bytes().to_vec();
                for _ in 0..=(rng() % 3) {
                    let i = (rng() % bytes.len() as u64) as usize;
                    bytes[i] ^= (rng() % 255 + 1) as u8;
                }
                bytes
            } else {
                const PIECES: &[u8] = b"[]=#\"\n abcdekorstwy_0123456789";
                (0..rng() % 96)
                    .map(|_| PIECES[(rng() % PIECES.len() as u64) as usize])
                    .collect()
            };
            if let Err(e) = parse_spec(&String::from_utf8_lossy(&bytes)) {
                assert!(
                    e.starts_with("spec line ") || e.starts_with("spec has no runs"),
                    "{e}"
                );
            }
        }
    }

    #[test]
    fn backoff_doubles_and_is_bounded() {
        assert_eq!(backoff_for(100, 1), 100);
        assert_eq!(backoff_for(100, 2), 200);
        assert_eq!(backoff_for(100, 4), 800);
        assert_eq!(backoff_for(100, 40), 800); // capped
    }

    /// Scripted executor: a queue of outcomes per run, recording calls.
    struct Fake {
        script: Vec<(String, AttemptOutcome)>,
        calls: Vec<(String, bool, u32)>,
        pauses: Vec<u64>,
        touch_ckpt_on_fail: bool,
    }

    impl Executor for Fake {
        fn attempt(
            &mut self,
            run: &RunSpec,
            ckpt_path: &Path,
            resume: bool,
            attempt: u32,
        ) -> AttemptOutcome {
            self.calls.push((run.name.clone(), resume, attempt));
            let i = self
                .script
                .iter()
                .position(|(n, _)| n == &run.name)
                .expect("scripted outcome");
            let (_, outcome) = self.script.remove(i);
            if self.touch_ckpt_on_fail && matches!(outcome, AttemptOutcome::Failed(_)) {
                fs::write(ckpt_path, b"stub").expect("touch checkpoint");
            }
            outcome
        }

        fn pause(&mut self, ms: u64) {
            self.pauses.push(ms); // no real sleeping in tests
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmvrp-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn failed_runs_retry_from_checkpoint_then_dead_letter() {
        let dir = tmpdir("dlq");
        let spec = parse_spec(
            "retries = 1\nbackoff_ms = 10\n\
             [flaky]\nworkload = w\n\
             [doomed]\nworkload = w\n\
             [ok]\nworkload = w\n",
        )
        .expect("parse");
        let mut exec = Fake {
            script: vec![
                ("flaky".into(), AttemptOutcome::Failed("boom".into())),
                ("flaky".into(), AttemptOutcome::Completed),
                ("doomed".into(), AttemptOutcome::Failed("a".into())),
                ("doomed".into(), AttemptOutcome::Failed("b".into())),
                ("ok".into(), AttemptOutcome::Completed),
            ],
            calls: Vec::new(),
            pauses: Vec::new(),
            touch_ckpt_on_fail: true,
        };
        let mut log = Vec::new();
        let records = run_campaign(&spec, &dir, &mut exec, &mut |l| log.push(l.to_string()));
        // flaky: first attempt fresh, retry resumes from the checkpoint.
        assert_eq!(exec.calls[0], ("flaky".to_string(), false, 0));
        assert_eq!(exec.calls[1], ("flaky".to_string(), true, 1));
        assert_eq!(exec.pauses, vec![10, 10]); // one per retried failure
        assert_eq!(
            records
                .iter()
                .map(|r| (r.name.as_str(), r.done, r.attempts))
                .collect::<Vec<_>>(),
            vec![("flaky", true, 2), ("doomed", false, 2), ("ok", true, 1)]
        );
        // The dead run keeps its *last* failure message.
        assert_eq!(records[1].error, "b");
        assert!(log.iter().any(|l| l.contains("resuming from checkpoint")));
        // State file round-trips.
        save_state(&dir, &records).expect("save");
        assert_eq!(load_state(&dir).expect("load"), records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_file_errors_name_the_line() {
        let dir = tmpdir("state-err");
        fs::write(state_path(&dir), "garbage with no tabs\n").expect("write");
        let err = load_state(&dir).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
