//! The command table's row types and the one parser that reads an
//! argument list against a row. Every "needs", "unknown option" and
//! "unexpected argument" error of the CLI is worded here.

use crate::{Outcome, UsageError};

/// One subcommand: the words that select it, its positional arguments
/// (all required), its flags, the function that runs it, and its usage
/// text.
pub(crate) struct Command {
    pub words: &'static [&'static str],
    pub args: &'static [Arg],
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Outcome,
    pub about: &'static str,
}

pub(crate) const fn cmd(
    words: &'static [&'static str],
    args: &'static [Arg],
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
    about: &'static str,
) -> Command {
    Command {
        words,
        args,
        flags,
        run,
        about,
    }
}

/// A positional argument: its `<name>` on the usage screen and what a
/// missing one is called in the "needs" error. The last may repeat
/// (`many`); `choices` lists the values it takes.
pub(crate) struct Arg {
    pub name: &'static str,
    pub what: &'static str,
    pub many: bool,
    pub choices: Option<fn() -> String>,
}

impl Arg {
    pub(crate) const fn new(name: &'static str, what: &'static str) -> Self {
        Self {
            name,
            what,
            many: false,
            choices: None,
        }
    }
}

/// A flag as the usage screen shows it — `--name` for a switch,
/// `--name=VALUE` for a valued flag (also written `--name VALUE`),
/// `--name[=word]` for a switch that may also be written `--name=word` —
/// and its help text.
pub(crate) struct Flag(pub &'static str, pub &'static str);

impl Flag {
    fn name(&self) -> &'static str {
        self.0[2..].split(['=', '[']).next().unwrap_or_default()
    }

    /// `VALUE` in `--name=VALUE`; `None` for a switch.
    fn value(&self) -> Option<&'static str> {
        let value = self.0.split_once('=').map(|(_, v)| v);
        value.filter(|_| !self.0.contains('['))
    }
}

impl Command {
    /// The command's words joined, e.g. `trace check`.
    pub(crate) fn name(&self) -> String {
        self.words.join(" ")
    }

    /// ` <a> <b>..`, the positional arguments as the usage screen shows
    /// them.
    pub(crate) fn arg_names(&self) -> String {
        let names: Vec<String> = self.args.iter().map(|a| format!(" <{}>", a.name)).collect();
        let many = if self.args.last().is_some_and(|a| a.many) {
            ".."
        } else {
            ""
        };
        format!("{}{many}", names.concat())
    }
}

/// An argument list read against its command's row.
pub(crate) struct Args<'a> {
    positional: Vec<&'a str>,
    /// Each flag given, with its value; a repeated flag's last value wins.
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Reads `argv` (the words after the command's own) against `cmd`.
    pub(crate) fn parse(cmd: &Command, argv: &'a [String]) -> Result<Self, UsageError> {
        let name = cmd.name();
        let fail = |msg: String| Err(UsageError(msg));
        let (mut positional, mut flags) = (Vec::new(), Vec::new());
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(body) = arg.strip_prefix("--") else {
                positional.push(arg.as_str());
                continue;
            };
            let (given, inline) = match body.split_once('=') {
                Some((given, value)) => (given, Some(value)),
                None => (body, None),
            };
            let Some(flag) = cmd.flags.iter().find(|f| f.name() == given) else {
                let accepts: Vec<&str> = cmd.flags.iter().map(|f| f.0).collect();
                let accepts = match accepts.join(", ") {
                    list if list.is_empty() => "no options".to_string(),
                    list => list,
                };
                return fail(format!("unknown option {arg:?}; {name} accepts {accepts}"));
            };
            let value = match (flag.value(), inline, rest.clone().next()) {
                (None, None, _) => None,
                (None, Some(word), _) if flag.0.ends_with(&format!("[={word}]")) => Some(word),
                (None, Some(_), _) => {
                    return fail(format!("{arg:?}: the option is written {}", flag.0))
                }
                (Some(_), Some(value), _) => Some(value),
                (Some(meta), None, None) => {
                    return fail(format!("{arg} needs a value: {arg}={meta} or {arg} {meta}"))
                }
                (Some(meta), None, Some(next)) if next.starts_with("--") => {
                    return fail(format!(
                        "{arg} needs a value ({meta}) but is followed by the option {next:?}; \
                         write {arg}={next} if that is the value"
                    ))
                }
                (Some(_), None, Some(_)) => rest.next().map(String::as_str),
            };
            flags.push((flag.name(), value));
        }
        if let Some(missing) = cmd.args.get(positional.len()..).filter(|m| !m.is_empty()) {
            let missing: Vec<String> = missing
                .iter()
                .map(|a| match a.choices {
                    Some(choices) => format!("{} ({})", a.what, choices()),
                    None => a.what.to_string(),
                })
                .collect();
            return fail(format!("{name} needs {}", missing.join(" and ")));
        }
        if positional.len() > cmd.args.len() && !cmd.args.last().is_some_and(|a| a.many) {
            let takes = match cmd.arg_names() {
                names if names.is_empty() => "no arguments".to_string(),
                names => names.trim_start().to_string(),
            };
            let extra = positional[cmd.args.len()];
            return fail(format!(
                "unexpected argument {extra:?}; {name} takes {takes}"
            ));
        }
        Ok(Args { positional, flags })
    }

    /// Positional argument `i`; the parser has checked it is there.
    pub(crate) fn pos(&self, i: usize) -> &'a str {
        self.positional[i]
    }

    /// Positional arguments from `i` on (a repeating last argument).
    pub(crate) fn from(&self, i: usize) -> &[&'a str] {
        &self.positional[i..]
    }

    /// Whether `--name` was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value `--name` was given, if it was.
    pub(crate) fn value(&self, name: &str) -> Option<&'a str> {
        let given = self.flags.iter().rev().find(|(n, _)| *n == name);
        given.and_then(|(_, v)| *v)
    }

    /// `--name`'s value as a whole number, if it was given.
    pub(crate) fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        let parse = |v: &str| {
            let bad = format!("bad --{name} value {v:?}: expected a whole number");
            v.parse().map_err(|_| UsageError(bad))
        };
        self.value(name).map(parse).transpose()
    }
}
