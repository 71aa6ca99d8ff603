//! Filter expressions over trace events — the language behind
//! `cmvrp trace query` and the `--where` flag of the trace analyzers.
//!
//! A query is a boolean combination of field comparisons, e.g.
//!
//! ```text
//! kind=delivered and proc=7 and t>=12
//! kind=served and cost>3 or not msg=heartbeat
//! t in 12..40 and (from=0 or to=0)
//! ```
//!
//! ## Grammar (EBNF)
//!
//! ```text
//! expr   := or
//! or     := and { "or" and }
//! and    := unary { "and" unary }
//! unary  := "not" unary | "(" expr ")" | cmp
//! cmp    := field comparator value
//!         | field "in" number ".." number     (* t in a..b  ≡  t>=a and t<b *)
//! comparator := "=" | "!=" | "<" | "<=" | ">" | ">="
//! value  := number | word
//! ```
//!
//! Words are `[A-Za-z_][A-Za-z0-9_.-]*` (dots allowed, so span names like
//! `alg1.coarsen` need no quoting); numbers are unsigned decimal integers.
//!
//! ## Fields
//!
//! *Name-valued* (only `=` and `!=`):
//!
//! | field | meaning |
//! |---|---|
//! | `kind` | the event's schema tag; the part after the last `_` is accepted as an alias (`delivered` ≡ `msg_delivered`, `served` ≡ `job_served`) |
//! | `msg` | the protocol classification of a message event: `query`, `reply`, `move`, `heartbeat` |
//! | `reason` | a drop's reason: `lost`, `crashed` |
//! | `name` | a phase span's name |
//! | `found` | a completion's outcome: `true`, `false` |
//!
//! *Numeric* (all comparators): `t`/`time`, `proc` (matches **any**
//! process mentioned by the event — sender, recipient, vehicle, initiator,
//! watcher, peer, crashed process), `from`, `to`, `seq`, `vehicle`,
//! `initiator`, `watcher`, `peer`, `delay`, `cost`, `dist`, `generation`,
//! `round`, `worker`, `workers`, `vehicles`, `capacity`, `steals`.
//!
//! `kind`, `msg`, `time` and `proc` are the language's own names. Every
//! other field is the JSONL key of the same name, and a comparison finds
//! its values by walking the event's fields, the same walk both trace
//! encoders write from ([`crate::event`]).
//!
//! A comparison never matches an event that lacks the field (`delay>2`
//! ignores everything but deliveries); use `not` to invert that, e.g.
//! `not msg=heartbeat` also keeps events that carry no `msg` at all.
//!
//! Malformed expressions are rejected with a [`QueryError`] carrying the
//! 1-based column of the offending token and a message naming what was
//! expected there.

use crate::event::{DropReason, Event, FieldWriter, MsgKind, KINDS};
use std::fmt;

/// A parse failure, anchored to where in the input it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// 1-based byte column of the offending token (one past the end of
    /// the input when it ended too early).
    pub col: usize,
    /// What was found and what was expected instead.
    pub msg: String,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query error at col {}: {}", self.col, self.msg)
    }
}

impl std::error::Error for QueryError {}

/// A comparison's right-hand side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer literal.
    Num(u64),
    /// Bare word (event kinds, message kinds, span names, `true`/`false`).
    Word(String),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A parsed filter expression; build one with [`parse_query`], evaluate
/// with [`Expr::matches`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `field op value`
    Cmp {
        /// Field name (validated against the catalog at parse time).
        field: String,
        /// Comparator.
        op: CmpOp,
        /// Right-hand side.
        value: Value,
    },
    /// Both sides must match.
    And(Box<Expr>, Box<Expr>),
    /// Either side must match.
    Or(Box<Expr>, Box<Expr>),
    /// The inner expression must not match.
    Not(Box<Expr>),
}

/// Name-valued fields (compared with `=`/`!=` against a word).
const NAME_FIELDS: [&str; 5] = ["kind", "msg", "reason", "name", "found"];

/// Numeric fields (all comparators).
const NUM_FIELDS: [&str; 19] = [
    "t",
    "time",
    "proc",
    "from",
    "to",
    "seq",
    "vehicle",
    "initiator",
    "watcher",
    "peer",
    "delay",
    "cost",
    "dist",
    "generation",
    "round",
    "worker",
    "workers",
    "vehicles",
    "capacity",
];

fn is_name_field(field: &str) -> bool {
    NAME_FIELDS.contains(&field)
}

fn is_num_field(field: &str) -> bool {
    NUM_FIELDS.contains(&field) || field == "steals"
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Num(u64),
    Op(CmpOp),
    LPar,
    RPar,
    DotDot,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("word {w:?}"),
            Tok::Num(n) => format!("number {n}"),
            Tok::Op(op) => format!("operator {:?}", op.as_str()),
            Tok::LPar => "\"(\"".into(),
            Tok::RPar => "\")\"".into(),
            Tok::DotDot => "\"..\"".into(),
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<(usize, Tok)>, QueryError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let col = i + 1;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push((col, Tok::LPar));
                i += 1;
            }
            b')' => {
                toks.push((col, Tok::RPar));
                i += 1;
            }
            b'=' => {
                toks.push((col, Tok::Op(CmpOp::Eq)));
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((col, Tok::Op(CmpOp::Ne)));
                    i += 2;
                } else {
                    return Err(QueryError {
                        col,
                        msg: "expected \"!=\" (lone \"!\" is not an operator; use \"not\")".into(),
                    });
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((col, Tok::Op(CmpOp::Le)));
                    i += 2;
                } else {
                    toks.push((col, Tok::Op(CmpOp::Lt)));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((col, Tok::Op(CmpOp::Ge)));
                    i += 2;
                } else {
                    toks.push((col, Tok::Op(CmpOp::Gt)));
                    i += 1;
                }
            }
            b'.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push((col, Tok::DotDot));
                    i += 2;
                } else {
                    return Err(QueryError {
                        col,
                        msg: "expected \"..\" (a range is written `field in a..b`)".into(),
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let n = text.parse::<u64>().map_err(|_| QueryError {
                    col,
                    msg: format!("number {text:?} does not fit in 64 bits"),
                })?;
                toks.push((col, Tok::Num(n)));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                // Dots join a word ("alg1.coarsen") unless doubled (a range).
                while i < bytes.len() {
                    let c = bytes[i];
                    let word_char = c.is_ascii_alphanumeric() || c == b'_' || c == b'-';
                    let lone_dot = c == b'.' && bytes.get(i + 1) != Some(&b'.');
                    if word_char || lone_dot {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push((col, Tok::Word(input[start..i].to_string())));
            }
            other => {
                return Err(QueryError {
                    col,
                    msg: format!(
                        "unexpected character {:?}; expected a field name, operator, \
                         number, or parenthesis",
                        other as char
                    ),
                });
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    /// Column one past the end of the input, for "input ended" errors.
    end_col: usize,
}

impl Parser {
    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<(usize, Tok)> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, expected: &str) -> QueryError {
        match self.peek() {
            Some((col, tok)) => QueryError {
                col: *col,
                msg: format!("expected {expected}, found {}", tok.describe()),
            },
            None => QueryError {
                col: self.end_col,
                msg: format!("expected {expected}, but the expression ended"),
            },
        }
    }

    fn expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some((_, Tok::Word(w))) if w == "or") {
            self.next();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.unary()?;
        while matches!(self.peek(), Some((_, Tok::Word(w))) if w == "and") {
            self.next();
            let rhs = self.unary()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, QueryError> {
        match self.peek() {
            Some((_, Tok::Word(w))) if w == "not" => {
                self.next();
                Ok(Expr::Not(Box::new(self.unary()?)))
            }
            Some((_, Tok::LPar)) => {
                self.next();
                let inner = self.expr()?;
                if matches!(self.peek(), Some((_, Tok::RPar))) {
                    self.next();
                    Ok(inner)
                } else {
                    Err(self.err_here("closing \")\""))
                }
            }
            _ => self.comparison(),
        }
    }

    fn comparison(&mut self) -> Result<Expr, QueryError> {
        let (field_col, field) = match self.next() {
            Some((col, Tok::Word(w))) => (col, w),
            Some((col, tok)) => {
                return Err(QueryError {
                    col,
                    msg: format!(
                        "expected a field name (e.g. kind, proc, t), found {}",
                        tok.describe()
                    ),
                })
            }
            None => {
                return Err(QueryError {
                    col: self.end_col,
                    msg: "expected a field name (e.g. kind, proc, t), but the expression ended"
                        .into(),
                })
            }
        };
        let name_field = is_name_field(&field);
        if !name_field && !is_num_field(&field) {
            return Err(QueryError {
                col: field_col,
                msg: format!(
                    "unknown field {field:?}; name fields: {}; numeric fields: {}, steals",
                    NAME_FIELDS.join(", "),
                    NUM_FIELDS.join(", ")
                ),
            });
        }
        // Range sugar: `field in a..b` ≡ `field >= a and field < b`.
        if matches!(self.peek(), Some((_, Tok::Word(w))) if w == "in") {
            let (in_col, _) = self.next().unwrap();
            if name_field {
                return Err(QueryError {
                    col: in_col,
                    msg: format!(
                        "field {field:?} is name-valued; \"in\" ranges need a numeric field"
                    ),
                });
            }
            let lo = self.number("a range start after \"in\"")?;
            match self.next() {
                Some((_, Tok::DotDot)) => {}
                Some((col, tok)) => {
                    return Err(QueryError {
                        col,
                        msg: format!("expected \"..\" in range, found {}", tok.describe()),
                    })
                }
                None => {
                    return Err(QueryError {
                        col: self.end_col,
                        msg: "expected \"..\" in range, but the expression ended".into(),
                    })
                }
            }
            let hi = self.number("a range end after \"..\"")?;
            return Ok(Expr::And(
                Box::new(Expr::Cmp {
                    field: field.clone(),
                    op: CmpOp::Ge,
                    value: Value::Num(lo),
                }),
                Box::new(Expr::Cmp {
                    field,
                    op: CmpOp::Lt,
                    value: Value::Num(hi),
                }),
            ));
        }
        let op = match self.next() {
            Some((_, Tok::Op(op))) => op,
            Some((col, tok)) => {
                return Err(QueryError {
                    col,
                    msg: format!(
                        "expected a comparison operator (=, !=, <, <=, >, >=) or \"in\" \
                         after field {field:?}, found {}",
                        tok.describe()
                    ),
                })
            }
            None => {
                return Err(QueryError {
                    col: self.end_col,
                    msg: format!(
                        "expected a comparison operator (=, !=, <, <=, >, >=) or \"in\" \
                         after field {field:?}, but the expression ended"
                    ),
                })
            }
        };
        let value = match self.next() {
            Some((col, Tok::Num(n))) => {
                if name_field {
                    return Err(QueryError {
                        col,
                        msg: format!("field {field:?} compares against a word, not a number"),
                    });
                }
                Value::Num(n)
            }
            Some((col, Tok::Word(w))) => {
                if !name_field {
                    return Err(QueryError {
                        col,
                        msg: format!("field {field:?} compares against a number, not {w:?}"),
                    });
                }
                Value::Word(w)
            }
            Some((col, tok)) => {
                return Err(QueryError {
                    col,
                    msg: format!(
                        "expected a value after {:?}, found {}",
                        op.as_str(),
                        tok.describe()
                    ),
                })
            }
            None => {
                return Err(QueryError {
                    col: self.end_col,
                    msg: format!(
                        "expected a value after {:?}, but the expression ended",
                        op.as_str()
                    ),
                })
            }
        };
        if name_field && !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            return Err(QueryError {
                col: field_col,
                msg: format!(
                    "field {field:?} is name-valued and only supports = and !=, not {:?}",
                    op.as_str()
                ),
            });
        }
        Ok(Expr::Cmp { field, op, value })
    }

    fn number(&mut self, what: &str) -> Result<u64, QueryError> {
        match self.peek() {
            Some((_, Tok::Num(n))) => {
                let n = *n;
                self.next();
                Ok(n)
            }
            _ => Err(self.err_here(what)),
        }
    }
}

/// Parses a filter expression. See the [module docs](self) for the
/// grammar and field catalog.
///
/// # Errors
///
/// Returns a [`QueryError`] with the 1-based column of the first
/// offending token and the token that was expected there.
pub fn parse_query(input: &str) -> Result<Expr, QueryError> {
    let toks = tokenize(input)?;
    if toks.is_empty() {
        return Err(QueryError {
            col: 1,
            msg: "empty expression; expected a field comparison like kind=served".into(),
        });
    }
    let mut parser = Parser {
        toks,
        pos: 0,
        end_col: input.len() + 1,
    };
    let expr = parser.expr()?;
    if let Some((col, tok)) = parser.peek() {
        return Err(QueryError {
            col: *col,
            msg: format!(
                "unexpected trailing {}; expected \"and\", \"or\", or the end of the expression",
                tok.describe()
            ),
        });
    }
    Ok(expr)
}

/// One comparison looked up by walking an event: `hit` turns true when a
/// field the comparison names holds a value that satisfies it.
struct Find<'q> {
    /// The schema key the comparison names.
    key: &'q str,
    op: CmpOp,
    value: &'q Value,
    hit: bool,
}

impl Find<'_> {
    fn num(&mut self, v: u64) {
        if let Value::Num(want) = self.value {
            self.hit |= self.op.holds(v, *want);
        }
    }

    /// A name field: `is` says whether the wanted word names its value.
    fn word(&mut self, key: &str, is: impl Fn(&str) -> bool) {
        if let (true, Value::Word(want)) = (key == self.key, self.value) {
            // Ordering on name fields is rejected at parse time.
            self.hit |= match self.op {
                CmpOp::Eq => is(want),
                CmpOp::Ne => !is(want),
                _ => false,
            };
        }
    }
}

impl FieldWriter for Find<'_> {
    /// The schema tag, or its last-underscore suffix: `delivered` ≡
    /// `msg_delivered`.
    fn kind(&mut self, index: usize) {
        let tag = KINDS[index];
        self.word("ev", |want| {
            want == tag || tag.rsplit('_').next() == Some(want)
        });
    }

    fn u64(&mut self, key: &'static str, v: u64) {
        if key == self.key {
            self.num(v);
        }
    }

    /// `proc` matches every process id the event mentions.
    fn id(&mut self, key: &'static str, v: usize) {
        if key == self.key || self.key == "proc" {
            self.num(v as u64);
        }
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        self.word(key, |want| want == if v { "true" } else { "false" });
    }

    fn str(&mut self, key: &'static str, v: &str) {
        self.word(key, |want| want == v);
    }

    fn reason(&mut self, key: &'static str, v: DropReason) {
        self.word(key, |want| want == v.as_str());
    }

    fn msg_kind(&mut self, key: &'static str, v: Option<MsgKind>) {
        if let Some(k) = v {
            self.word(key, |want| want == k.as_str());
        }
    }
}

impl Expr {
    /// Whether the event satisfies the expression. A bare comparison never
    /// matches an event that lacks the field (see the module docs).
    pub fn matches(&self, ev: &Event) -> bool {
        match self {
            Expr::And(a, b) => a.matches(ev) && b.matches(ev),
            Expr::Or(a, b) => a.matches(ev) || b.matches(ev),
            Expr::Not(inner) => !inner.matches(ev),
            Expr::Cmp { field, op, value } => {
                // The query language's own names; every other field is
                // the schema key it is spelled as.
                let key = match field.as_str() {
                    "kind" => "ev",
                    "time" => "t",
                    "msg" => "kind",
                    other => other,
                };
                let mut find = Find {
                    key,
                    op: *op,
                    value,
                    hit: false,
                };
                ev.walk(&mut find);
                find.hit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(t: u64, seq: u64, vehicle: usize, cost: u64) -> Event {
        Event::JobServed {
            t,
            seq,
            vehicle,
            cost,
        }
    }

    #[test]
    fn example_from_docs_matches() {
        let q = parse_query("kind=delivered and proc=7 and t>=12").unwrap();
        let hit = Event::MsgDelivered {
            t: 12,
            from: 7,
            to: 3,
            delay: 2,
            kind: None,
        };
        assert!(q.matches(&hit));
        let wrong_proc = Event::MsgDelivered {
            t: 12,
            from: 1,
            to: 3,
            delay: 2,
            kind: None,
        };
        assert!(!q.matches(&wrong_proc));
        assert!(!q.matches(&served(12, 0, 7, 1)));
    }

    #[test]
    fn proc_matches_any_process_field() {
        let q = parse_query("proc=9").unwrap();
        assert!(q.matches(&Event::MsgSent {
            t: 0,
            from: 2,
            to: 9,
            kind: None
        }));
        assert!(q.matches(&Event::HeartbeatMissed {
            t: 0,
            watcher: 9,
            peer: 1
        }));
        assert!(!q.matches(&Event::JobArrived {
            t: 0,
            seq: 9, // a seq, not a process
            pos: vec![0, 0],
        }));
    }

    #[test]
    fn range_sugar_is_half_open() {
        let q = parse_query("t in 5..8").unwrap();
        assert!(!q.matches(&served(4, 0, 0, 1)));
        assert!(q.matches(&served(5, 0, 0, 1)));
        assert!(q.matches(&served(7, 0, 0, 1)));
        assert!(!q.matches(&served(8, 0, 0, 1)));
    }

    #[test]
    fn not_and_or_with_parens() {
        let q = parse_query("not (kind=served or kind=arrived)").unwrap();
        assert!(!q.matches(&served(0, 0, 0, 1)));
        assert!(q.matches(&Event::ProcessCrashed { t: 1, proc: 2 }));
        // Precedence: and binds tighter than or.
        let q = parse_query("kind=served and cost>2 or kind=crashed").unwrap();
        assert!(q.matches(&served(0, 0, 0, 3)));
        assert!(!q.matches(&served(0, 0, 0, 1)));
        assert!(q.matches(&Event::ProcessCrashed { t: 1, proc: 2 }));
    }

    #[test]
    fn missing_field_never_matches_bare_comparison() {
        let q = parse_query("delay>0").unwrap();
        assert!(!q.matches(&served(0, 0, 0, 1)));
        let q = parse_query("msg!=heartbeat").unwrap();
        // No msg annotation at all: != is still field-present-and-differs.
        assert!(!q.matches(&Event::MsgSent {
            t: 0,
            from: 0,
            to: 1,
            kind: None
        }));
        // `not` is how you include field-less events.
        let q = parse_query("not msg=heartbeat").unwrap();
        assert!(q.matches(&Event::MsgSent {
            t: 0,
            from: 0,
            to: 1,
            kind: None
        }));
    }

    #[test]
    fn span_names_with_dots_need_no_quoting() {
        let q = parse_query("name=alg1.coarsen").unwrap();
        assert!(q.matches(&Event::PhaseSpan {
            name: "alg1.coarsen".into(),
            start_ns: 0,
            end_ns: 1,
        }));
    }

    #[test]
    fn errors_carry_column_and_expectation() {
        let err = parse_query("kind=").unwrap_err();
        assert_eq!(err.col, 6);
        assert!(err.msg.contains("expected a value"), "{err}");

        let err = parse_query("bogus=3").unwrap_err();
        assert_eq!(err.col, 1);
        assert!(err.msg.contains("unknown field"), "{err}");
        assert!(err.msg.contains("proc"), "{err}");

        let err = parse_query("t >> 3").unwrap_err();
        assert!(err.msg.contains("expected a value"), "{err}");

        let err = parse_query("(t=1").unwrap_err();
        assert_eq!(err.col, 5);
        assert!(err.msg.contains("closing"), "{err}");

        let err = parse_query("t=1 kind=served").unwrap_err();
        assert_eq!(err.col, 5);
        assert!(err.msg.contains("trailing"), "{err}");

        let err = parse_query("kind<served").unwrap_err();
        assert!(err.msg.contains("only supports"), "{err}");

        let err = parse_query("t=served").unwrap_err();
        assert!(err.msg.contains("number"), "{err}");

        let err = parse_query("").unwrap_err();
        assert!(err.msg.contains("empty"), "{err}");
    }
}
