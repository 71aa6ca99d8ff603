//! The commands over `cmvrp-ckpt`: `ckpt inspect` and the `campaign`
//! runner (`run`, `status`, `retry-dead`).

use crate::{table, Args, Outcome, UsageError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub(crate) fn inspect(a: &Args) -> Outcome {
    let ckpt = cmvrp_ckpt::read_checkpoint(Path::new(a.pos(0))).map_err(UsageError)?;
    Ok((cmvrp_ckpt::inspect(&ckpt), 0))
}

/// Renders campaign records as the status table; returns the text and the
/// scriptable exit status (1 when the dead-letter list is non-empty).
fn campaign_summary(records: &[cmvrp_ckpt::RunRecord]) -> (String, i32) {
    let rows = records.iter().map(|r| {
        let status = if r.done { "done" } else { "DEAD" };
        [
            r.name.clone(),
            status.into(),
            r.attempts.to_string(),
            r.error.clone(),
        ]
    });
    let mut out = table(["run", "status", "attempts", "last error"], rows);
    let dead = records.iter().filter(|r| !r.done).count();
    if dead > 0 {
        let _ = writeln!(
            out,
            "dead-letter: {dead} run(s) exhausted their retries; re-run them \
             with `cmvrp campaign retry-dead <spec> --dir=DIR`"
        );
    } else {
        let _ = writeln!(out, "all {} run(s) completed", records.len());
    }
    (out, i32::from(dead > 0))
}

pub(crate) fn campaign_status(a: &Args) -> Outcome {
    let records = cmvrp_ckpt::load_state(Path::new(a.pos(0))).map_err(UsageError)?;
    Ok(campaign_summary(&records))
}

/// `campaign run`, or with `only_dead` `campaign retry-dead`.
pub(crate) fn campaign(a: &Args, only_dead: bool) -> Outcome {
    let spec_path = a.pos(0);
    let default_dir = format!("{spec_path}.campaign");
    let dir = PathBuf::from(a.value("dir").unwrap_or(&default_dir));
    let bin = match a.value("bin") {
        Some(b) => PathBuf::from(b),
        None => std::env::current_exe()
            .map_err(|e| UsageError(format!("cannot locate the cmvrp binary: {e}")))?,
    };
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| UsageError(format!("cannot read campaign spec {spec_path:?}: {e}")))?;
    let mut runs =
        cmvrp_ckpt::parse_spec(&text).map_err(|e| UsageError(format!("{spec_path}: {e}")))?;
    std::fs::create_dir_all(&dir)
        .map_err(|e| UsageError(format!("cannot create campaign dir {dir:?}: {e}")))?;
    let mut prior: Vec<cmvrp_ckpt::RunRecord> = Vec::new();
    if only_dead {
        prior = cmvrp_ckpt::load_state(&dir).map_err(UsageError)?;
        runs.retain(|r| prior.iter().any(|p| p.name == r.name && !p.done));
        if runs.is_empty() {
            let out = "dead-letter list is empty; nothing to retry\n";
            return Ok((out.into(), 0));
        }
    }
    let mut exec = cmvrp_ckpt::ProcessExecutor { bin };
    let mut out = String::new();
    let records = cmvrp_ckpt::run_campaign(&runs, &dir, &mut exec, &mut |line| {
        let _ = writeln!(out, "{line}");
    });
    // retry-dead folds the fresh verdicts back over the previous state.
    let merged = if only_dead {
        for run in &mut prior {
            if let Some(fresh) = records.iter().find(|r| r.name == run.name) {
                *run = fresh.clone();
            }
        }
        prior
    } else {
        records
    };
    cmvrp_ckpt::save_state(&dir, &merged)
        .map_err(|e| UsageError(format!("cannot write campaign state in {dir:?}: {e}")))?;
    let (summary, status) = campaign_summary(&merged);
    out.push_str(&summary);
    let _ = writeln!(out, "state: {}", dir.join("state.tsv").display());
    Ok((out, status))
}
