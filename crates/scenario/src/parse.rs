//! The scenario file parser: a hand-rolled, zero-dependency reader for the
//! sectioned `key = value` grammar described in the crate docs.
//!
//! [`lex`] is the one lexer for sectioned files: scenario files here and
//! campaign specs in `cmvrp-ckpt` both read through it, and each format
//! applies its own rules to the [`Lexeme`]s it yields. Errors carry
//! 1-based line *and* column positions scoped to the offending token, in
//! the house style of the trace query language (column-scoped `col N:`
//! errors): every rejection names what was seen and the supported
//! alternatives.

use crate::{ArrivalSpec, Baseline, FaultScript, ReportSpec, Scenario};
use cmvrp_workloads::WorkloadConfig;
use std::collections::BTreeMap;

/// A scenario parse error, scoped to the line and column of the offending
/// token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong, naming the supported alternatives.
    pub msg: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario line {}, col {}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for ScenarioError {}

fn err(line: usize, col: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        col,
        msg: msg.into(),
    }
}

const SECTIONS: &[&str] = &["substrate", "demand", "arrivals", "faults", "report"];

/// One meaningful line of a sectioned file, with 1-based positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lexeme<'a> {
    /// A `[name]` header; `col` points at the name.
    Section {
        /// 1-based line.
        line: usize,
        /// 1-based column of the name.
        col: usize,
        /// The name, trimmed.
        name: &'a str,
    },
    /// A `key = value` line; `col` points at the key and `vcol` at the
    /// value, whose surrounding double quotes, if any, are stripped.
    Pair {
        /// 1-based line.
        line: usize,
        /// 1-based column of the key.
        col: usize,
        /// The key, trimmed.
        key: &'a str,
        /// 1-based column of the value.
        vcol: usize,
        /// The value, trimmed and unquoted.
        val: &'a str,
    },
}

/// Splits a sectioned file into `[section]` headers and `key = value`
/// pairs, skipping blank lines and comments. `#` starts a comment at the
/// start of a line or after whitespace, never inside double quotes, so
/// `path = run#1.jsonl` keeps its `#`.
pub fn lex(text: &str) -> impl Iterator<Item = Result<Lexeme<'_>, ScenarioError>> {
    text.lines()
        .enumerate()
        .filter_map(|(i, raw)| lex_line(i + 1, raw).transpose())
}

/// Where a line's comment begins, or its length when it has none.
fn comment_start(raw: &str) -> usize {
    let mut quoted = false;
    let mut after_space = true;
    for (i, b) in raw.bytes().enumerate() {
        match b {
            b'"' => quoted = !quoted,
            b'#' if after_space && !quoted => return i,
            _ => {}
        }
        after_space = b.is_ascii_whitespace();
    }
    raw.len()
}

fn lex_line(line: usize, raw: &str) -> Result<Option<Lexeme<'_>>, ScenarioError> {
    let body = &raw[..comment_start(raw)];
    let trimmed = body.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let start = body.len() - body.trim_start().len() + 1; // 1-based col
    if let Some(inner) = trimmed.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| {
            err(
                line,
                start,
                format!("section header {trimmed:?} is missing its `]`"),
            )
        })?;
        let name = inner.trim();
        if name.is_empty() {
            return Err(err(line, start, "empty section name `[]`"));
        }
        let col = start + 1 + inner.len() - inner.trim_start().len();
        return Ok(Some(Lexeme::Section { line, col, name }));
    }
    let eq = body.find('=').ok_or_else(|| {
        err(
            line,
            start,
            format!("expected `key = value` or `[section]`, got {trimmed:?}"),
        )
    })?;
    let key = body[..eq].trim();
    if key.is_empty() {
        return Err(err(line, start, "empty key before `=`"));
    }
    let rest = &body[eq + 1..];
    let val = rest.trim();
    if val.is_empty() {
        return Err(err(line, eq + 2, format!("key {key:?} has an empty value")));
    }
    let vcol = eq + 2 + rest.len() - rest.trim_start().len();
    let val = match val.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        Some(unquoted) => unquoted,
        None => val,
    };
    Ok(Some(Lexeme::Pair {
        line,
        col: start,
        key,
        vcol,
        val,
    }))
}

/// A `key = value` entry with source positions: `col` points at the key,
/// `vcol` at the first character of the value.
#[derive(Debug, Clone)]
struct Entry {
    line: usize,
    col: usize,
    vcol: usize,
    val: String,
}

type Section = BTreeMap<String, Entry>;

/// Parses the full text of a scenario file.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut sections: BTreeMap<String, (usize, Section)> = BTreeMap::new();
    let mut top: Section = BTreeMap::new();
    let mut current: Option<&str> = None;
    for lexeme in lex(text) {
        match lexeme? {
            Lexeme::Section { line, col, name } => {
                if !SECTIONS.contains(&name) {
                    return Err(err(
                        line,
                        col,
                        format!(
                            "unknown section [{name}]; supported sections: {}",
                            SECTIONS
                                .iter()
                                .map(|s| format!("[{s}]"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ));
                }
                if let Some((first, _)) = sections.get(name) {
                    return Err(err(
                        line,
                        col,
                        format!("duplicate section [{name}] (first defined on line {first})"),
                    ));
                }
                sections.insert(name.to_string(), (line, Section::new()));
                current = Some(name);
            }
            Lexeme::Pair {
                line,
                col,
                key,
                vcol,
                val,
            } => {
                let dest = match current {
                    None => &mut top,
                    Some(name) => &mut sections.get_mut(name).expect("current section exists").1,
                };
                if let Some(prev) = dest.get(key) {
                    return Err(err(
                        line,
                        col,
                        format!("duplicate key {key:?} (first set on line {})", prev.line),
                    ));
                }
                let entry = Entry {
                    line,
                    col,
                    vcol,
                    val: val.to_string(),
                };
                dest.insert(key.to_string(), entry);
            }
        }
    }
    compile(top, sections)
}

/// Rejects keys outside `allowed`, column-scoped to the stray key.
fn no_extras(section: &str, entries: &Section, allowed: &[&str]) -> Result<(), ScenarioError> {
    for (key, e) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(err(
                e.line,
                e.col,
                format!(
                    "unknown key {key:?} in [{section}]; supported keys: {}",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn parse_u64(section: &str, key: &str, e: &Entry) -> Result<u64, ScenarioError> {
    e.val.parse().map_err(|_| {
        err(
            e.line,
            e.vcol,
            format!("[{section}] {key} = {:?} is not an unsigned integer", e.val),
        )
    })
}

fn compile(
    top: Section,
    mut sections: BTreeMap<String, (usize, Section)>,
) -> Result<Scenario, ScenarioError> {
    no_extras("scenario", &top, &["name"])?;
    let name = top.get("name").map(|e| e.val.clone());

    let (sub_line, substrate) = sections.remove("substrate").ok_or_else(|| {
        err(
            1,
            1,
            "missing [substrate] section; a scenario needs [substrate] side = <n>",
        )
    })?;
    no_extras("substrate", &substrate, &["kind", "side"])?;
    if let Some(kind) = substrate.get("kind") {
        if kind.val != "grid" {
            return Err(err(
                kind.line,
                kind.vcol,
                format!(
                    "unknown substrate kind {:?}; supported kinds: grid",
                    kind.val
                ),
            ));
        }
    }
    let side = match substrate.get("side") {
        Some(e) => parse_u64("substrate", "side", e)?,
        None => return Err(err(sub_line, 1, "[substrate] needs side = <grid side>")),
    };

    let (dem_line, demand_sec) = sections.remove("demand").ok_or_else(|| {
        err(
            1,
            1,
            "missing [demand] section; a scenario needs [demand] shape = <shape>",
        )
    })?;
    let demand = compile_demand(dem_line, &demand_sec, side)?;

    let arrivals = match sections.remove("arrivals") {
        Some((_, sec)) => compile_arrivals(&sec)?,
        None => ArrivalSpec::default(),
    };

    let faults = match sections.remove("faults") {
        Some((_, sec)) => compile_faults(&sec)?,
        None => FaultScript::default(),
    };

    let report = match sections.remove("report") {
        Some((_, sec)) => compile_report(&sec)?,
        None => ReportSpec::default(),
    };

    Ok(Scenario {
        name,
        demand,
        arrivals,
        faults,
        report,
    })
}

fn compile_demand(
    dem_line: usize,
    sec: &Section,
    side: u64,
) -> Result<WorkloadConfig, ScenarioError> {
    no_extras(
        "demand",
        sec,
        &["shape", "demand", "a", "jobs", "k", "seed"],
    )?;
    let shape = sec.get("shape").ok_or_else(|| {
        err(
            dem_line,
            1,
            "[demand] needs shape = point | line | square | uniform | clusters",
        )
    })?;
    // Which keys each shape consumes; a key valid for *some* shape but not
    // this one is rejected with the shape-scoped set.
    let uses: &[&str] = match shape.val.as_str() {
        "point" | "line" => &["demand"],
        "square" => &["a", "demand"],
        "uniform" => &["jobs", "seed"],
        "clusters" => &["k", "jobs", "seed"],
        other => {
            return Err(err(
                shape.line,
                shape.vcol,
                format!(
                    "unknown demand shape {other:?}; supported shapes: \
                     point, line, square, uniform, clusters"
                ),
            ))
        }
    };
    for (key, e) in sec {
        if key != "shape" && !uses.contains(&key.as_str()) {
            return Err(err(
                e.line,
                e.col,
                format!(
                    "key {key:?} is not used by demand shape {:?}; shape {:?} uses: {}",
                    shape.val,
                    shape.val,
                    uses.join(", ")
                ),
            ));
        }
    }
    let get = |key: &str| -> Result<Option<u64>, ScenarioError> {
        sec.get(key)
            .map(|e| parse_u64("demand", key, e))
            .transpose()
    };
    let need = |key: &str| -> Result<u64, ScenarioError> {
        get(key)?.ok_or_else(|| {
            err(
                shape.line,
                shape.col,
                format!("demand shape {:?} needs {key} = <n>", shape.val),
            )
        })
    };
    Ok(match shape.val.as_str() {
        "point" => WorkloadConfig::Point {
            grid: side,
            demand: need("demand")?,
        },
        "line" => WorkloadConfig::Line {
            grid: side,
            demand: need("demand")?,
        },
        "square" => WorkloadConfig::Square {
            grid: side,
            a: need("a")?,
            demand: need("demand")?,
        },
        "uniform" => WorkloadConfig::Uniform {
            grid: side,
            jobs: need("jobs")?,
            seed: get("seed")?.unwrap_or(0),
        },
        "clusters" => WorkloadConfig::Clusters {
            grid: side,
            clusters: need("k")? as usize,
            jobs: need("jobs")?,
            seed: get("seed")?.unwrap_or(0),
        },
        _ => unreachable!("shape validated above"),
    })
}

const MODES: &str =
    "batch, sequential, uniform-rate, diurnal, flash-crowd, moving-hotspot, alternating";

fn compile_arrivals(sec: &Section) -> Result<ArrivalSpec, ScenarioError> {
    no_extras("arrivals", sec, &["mode", "seed", "waves", "at"])?;
    let seed = sec
        .get("seed")
        .map(|e| parse_u64("arrivals", "seed", e))
        .transpose()?;
    let mode = sec.get("mode").map_or("batch", |e| e.val.as_str());
    // Mode-specific keys are rejected elsewhere with a column-scoped error.
    let reject_unless = |key: &str, wanted: &str| -> Result<(), ScenarioError> {
        match sec.get(key) {
            Some(e) if mode != wanted => Err(err(
                e.line,
                e.col,
                format!("key {key:?} is only used by arrivals mode {wanted:?} (mode is {mode:?})"),
            )),
            _ => Ok(()),
        }
    };
    reject_unless("waves", "diurnal")?;
    reject_unless("at", "flash-crowd")?;
    Ok(match mode {
        "batch" => ArrivalSpec::Batch { seed },
        "sequential" => ArrivalSpec::Sequential,
        "uniform-rate" => ArrivalSpec::UniformRate { seed },
        "diurnal" => ArrivalSpec::Diurnal {
            waves: sec
                .get("waves")
                .map(|e| parse_u64("arrivals", "waves", e))
                .transpose()?
                .unwrap_or(4),
            seed,
        },
        "flash-crowd" => ArrivalSpec::FlashCrowd {
            at: sec
                .get("at")
                .map(|e| parse_u64("arrivals", "at", e))
                .transpose()?
                .unwrap_or(50),
            seed,
        },
        "moving-hotspot" => ArrivalSpec::MovingHotspot { seed },
        "alternating" => ArrivalSpec::Alternating { seed },
        other => {
            let e = sec.get("mode").expect("mode present when not defaulted");
            return Err(err(
                e.line,
                e.vcol,
                format!("unknown arrivals mode {other:?}; supported modes: {MODES}"),
            ));
        }
    })
}

fn compile_faults(sec: &Section) -> Result<FaultScript, ScenarioError> {
    no_extras("faults", sec, &["crash_at_rounds"])?;
    let mut rounds = Vec::new();
    if let Some(e) = sec.get("crash_at_rounds") {
        for part in e.val.split(',') {
            let part = part.trim();
            let r: u64 = part.parse().map_err(|_| {
                err(
                    e.line,
                    e.vcol,
                    format!("crash_at_rounds entry {part:?} is not an unsigned integer"),
                )
            })?;
            if r == 0 {
                return Err(err(e.line, e.vcol, "crash_at_rounds entries must be >= 1"));
            }
            if rounds.last().is_some_and(|&last| r <= last) {
                return Err(err(
                    e.line,
                    e.vcol,
                    format!(
                        "crash_at_rounds must be strictly increasing (got {} after {})",
                        r,
                        rounds.last().unwrap()
                    ),
                ));
            }
            rounds.push(r);
        }
    }
    Ok(FaultScript {
        crash_at_rounds: rounds,
    })
}

fn compile_report(sec: &Section) -> Result<ReportSpec, ScenarioError> {
    no_extras("report", sec, &["baselines", "capacity", "vehicles"])?;
    let baselines = match sec.get("baselines") {
        None => ReportSpec::default().baselines,
        Some(e) => {
            let mut out = Vec::new();
            for part in e.val.split(',') {
                match part.trim() {
                    "becker" => out.push(Baseline::Becker),
                    "gn" => out.push(Baseline::Gn),
                    "none" => {}
                    other => {
                        return Err(err(
                            e.line,
                            e.vcol,
                            format!(
                                "unknown baseline {other:?}; supported baselines: becker, gn, none"
                            ),
                        ))
                    }
                }
            }
            out
        }
    };
    let auto_or = |key: &str| -> Result<Option<u64>, ScenarioError> {
        match sec.get(key) {
            None => Ok(None),
            Some(e) if e.val == "auto" => Ok(None),
            Some(e) => parse_u64("report", key, e).map(Some),
        }
    };
    Ok(ReportSpec {
        baselines,
        capacity: auto_or("capacity")?,
        vehicles: auto_or("vehicles")?,
    })
}
